"""Measuring process of the benchmark: runs one workload's operation
repeatedly for a time budget, checks every output, and prints one JSON line.

Started by run.py as `python3 bench/workload.py JOB_JSON` with PYTHONPATH set
to the checkout's `src`. With tracing on, untraced and traced operations
alternate on the same inputs; end-to-end numbers come from untraced ones.
Every timed part is bracketed by the calibration loop of speed.py, and its
wall time is rescaled to the reference host speed.
"""
from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from collections import Counter
from math import comb
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import mvmc
import mvmc.cli
import mvmc.driver
import mvmc.synth

from speed import HostSpeed
from tracer import LAYER_METRICS, Tracer, layer_metrics

TIMED_LAYERS = {name for name, unit, *_ in LAYER_METRICS if unit in ("s", "ns")}
# Calls after which an untraced operation pauses for a calibration loop once
# its running segment has lasted speed.SEGMENT_S, so a long operation is
# rescaled piecewise as the host's speed drifts (see speed.py).
CHECKPOINTS = [
    ("mvmc.modularity", "move_pass"),
    ("mvmc.cli", "build_daily_views"),
    ("mvmc.cli", "run_mvmc"),
    ("mvmc.cli", "pairwise_ari_matrix"),
    ("mvmc.cli", "average_linkage_merges"),
    ("mvmc.cli", "ensemble_cluster"),
]


def kernel_backend() -> str:
    """The move-pass implementation that actually runs, by identity."""
    from mvmc import _kernels

    if _kernels.move_pass is _kernels._move_pass:
        return "python"
    return type(_kernels.move_pass).__module__.split(".")[0]


def environment() -> dict:
    return {
        "kernel.backend": kernel_backend(),
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mvmc": getattr(mvmc, "__version__", "unknown"),
    }


def ari(pred: list, truth: list) -> float:
    """Adjusted Rand index of two labelings of the same items."""
    def pairs(counts):
        return sum(comb(c, 2) for c in counts.values())

    n = len(pred)
    total = comb(n, 2)
    cells = pairs(Counter(zip(pred, truth)))
    a, b = pairs(Counter(pred)), pairs(Counter(truth))
    expected = a * b / total if total else 0.0
    top = (a + b) / 2
    return 1.0 if top == expected else (cells - expected) / (top - expected)


def artifact_set(out: Path) -> tuple[str, int]:
    """sha256 over (relative path, bytes) of every artifact, and their total size."""
    digest = hashlib.sha256()
    size = 0
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        digest.update(str(path.relative_to(out)).encode() + b"\0" + data + b"\0")
        size += len(data)
    return digest.hexdigest(), size


def read_tsv_column(path: Path) -> list[str]:
    return [line.split("\t")[0] for line in path.read_text().splitlines() if line]


class CorpusOp:
    """One `mvmc pipeline` invocation through the CLI entry point."""

    def __init__(self, job):
        self.config = job["config"]
        self.out = Path(job["output_dir"])
        self.truth = json.loads(Path(job["truth"]).read_text())

    def run(self, tracer, speed):
        shutil.rmtree(self.out, ignore_errors=True)
        args = ["pipeline", self.config]
        speed.start()
        try:
            if tracer is None:
                with speed.checkpoints_after(CHECKPOINTS):
                    mvmc.cli.main.main(args, standalone_mode=False)
            else:  # calibrating inside spans would inflate them
                tracer.call("cli.pipeline", mvmc.cli.main.main, args, standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        raw, scaled = speed.stop()
        timing = {"raw_s": raw, "wall_s": scaled}
        if code != 0:
            return {**timing, "problems": [f"pipeline exited {code}"]}
        digest, size = artifact_set(self.out)
        problems, scores = self.check()
        return {**timing, "problems": problems, "digest": digest, "artifact_bytes": size,
                "ari_truth": statistics.fmean(scores) if scores else 0.0}

    def check(self):
        """Every day's clusters cover its registry; score each day against the truth."""
        problems, scores = [], []
        days = sorted(p.stem for p in (self.out / "clusters").glob("*.tsv"))
        if days != sorted(self.truth):
            problems.append(f"clustered days {days[:3]}... differ from the input days")
        for day in days:
            registry = read_tsv_column(self.out / "views" / day / "registry.tsv")
            labels = dict(
                line.split("\t") for line in
                (self.out / "clusters" / f"{day}.tsv").read_text().splitlines() if line
            )
            if set(labels) != set(registry) or len(registry) != len(set(registry)):
                problems.append(f"{day}: clusters do not cover the registry")
                continue
            truth = self.truth.get(day, {})
            if not set(registry) <= set(truth):
                problems.append(f"{day}: registry holds hashtags without planted truth")
                continue
            scores.append(ari([labels[h] for h in registry], [truth[h] for h in registry]))
        return problems, scores


class GraphsOp:
    """`run_mvmc` on each planted-partition instance of the workload's set."""

    def __init__(self, job):
        g = job["graphs"]
        self.instances = [
            mvmc.synth.planted_partition_views(
                g["n"], g["blocks"], g["p_in"], g["p_out"], g["views"], g["noise_views"], seed
            )
            for seed in job["instance_seeds"]
        ]

    def run(self, tracer, speed):
        cfg = mvmc.driver.MvmcConfig()
        results = []
        speed.start()
        with speed.checkpoints_after(CHECKPOINTS if tracer is None else []):
            for graphs, _truth in self.instances:
                results.append(mvmc.driver.run_mvmc(graphs, cfg)[0])
        raw, scaled = speed.stop()
        problems, scores = [], []
        digest = hashlib.sha256()
        for clustering, (graphs, truth) in zip(results, self.instances):
            labels = [int(x) for x in clustering.labels]
            if len(labels) != graphs[0].n or min(labels) < 0:
                problems.append("labels do not cover the node set")
            digest.update(",".join(map(str, labels)).encode() + b";")
            scores.append(ari(labels, truth.tolist()))
        return {"raw_s": raw, "wall_s": scaled, "problems": problems, "digest": digest.hexdigest(),
                "artifact_bytes": 0, "ari_truth": statistics.fmean(scores)}


def run_once(op, speed: HostSpeed, traced: bool) -> dict:
    tracer = Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    t0 = perf_counter()
    try:
        record = op.run(tracer, speed)
    except Exception:  # a crashing operation is a failed operation, not a crashed benchmark
        traceback.print_exc()
        raw, scaled = speed.stop()
        record = {"raw_s": raw, "wall_s": scaled, "problems": ["operation raised"]}
    finally:
        if tracer is not None:
            tracer.uninstall()
    record["traced"] = traced
    record["elapsed_s"] = perf_counter() - t0  # with its calibration loops
    if tracer is not None and "digest" in record:
        # span times are rescaled by their operation's host-speed factor
        factor = record["wall_s"] / record["raw_s"] if record["raw_s"] else 1.0
        record["layers"] = {k: v * factor if k in TIMED_LAYERS else v
                            for k, v in layer_metrics(tracer).items()}
        record["layers"]["cli.artifact_bytes"] = float(record["artifact_bytes"])
    return record


def measure(op, seconds: float, trace: bool) -> tuple[list[dict], list[float]]:
    """At least two operations, then more until the next one would overrun
    `seconds`, so an untraced run's wall_s never rests on one sample; with
    tracing, untraced and traced ones alternate. Returns the operations'
    records and the calibration loop's times."""
    records = []
    start = perf_counter()
    speed = HostSpeed()
    while True:
        records.append(run_once(op, speed, traced=trace and len(records) % 2 == 1))
        if len(records) >= 2 and perf_counter() - start + records[-1]["elapsed_s"] > seconds:
            return records, speed.loops


def summarize(records: list[dict], loops: list[float], trace: bool) -> dict:
    failed = sum(bool(r["problems"]) for r in records)
    digests = {r["digest"] for r in records if "digest" in r}
    problems = [p for r in records for p in r["problems"]]
    if len(digests) > 1:
        problems.append("artifact sets differ between runs of the same input")
    ok = [r for r in records if not r["problems"]]
    untraced = [r["wall_s"] for r in records if not r["traced"]]
    out = {
        "attempted": len(records),
        "failed": failed,
        "correct": not problems,
        "problems": problems[:20],
        "digest": sorted(digests),
        "samples": [round(r["wall_s"], 4) for r in records],
        "raw_samples": [round(r["raw_s"], 4) for r in records],
        "traced": [r["traced"] for r in records],
        "env": environment(),
    }
    if trace:
        traced = [r for r in records if r["traced"] and "layers" in r]
        names = sorted({k for r in traced for k in r["layers"]})
        layers = {k: statistics.median(r["layers"][k] for r in traced if k in r["layers"])
                  for k in names}
        traced_wall = [r["wall_s"] for r in traced]
        if traced_wall and untraced:
            layers["trace.overhead_s"] = statistics.median(traced_wall) - statistics.median(untraced)
        layers["host.raw_wall_s"] = statistics.median(r["raw_s"] for r in records if not r["traced"])
        layers["host.calibrate_s"] = statistics.median(loops)
        out["metrics"] = layers
    else:
        out["metrics"] = {
            "wall_s": statistics.median(untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ari_truth": ok[0]["ari_truth"] if ok else 0.0,
            "ok_ratio": len(ok) / len(records),
        }
    return out


def main():
    job = json.loads(Path(sys.argv[1]).read_text())
    src = Path(job["src"]).resolve()
    if src not in Path(mvmc.__file__).resolve().parents:
        sys.exit(f"mvmc imported from {mvmc.__file__}, not from {src}")
    op = CorpusOp(job) if job["kind"] == "corpus" else GraphsOp(job)
    # one tiny call first, so lazy set-up (imports, a JIT if any) is not timed
    mvmc.maximize([mvmc.ViewGraph.from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)])])
    records, loops = measure(op, float(job["seconds"]), bool(job["trace"]))
    print(json.dumps(summarize(records, loops, bool(job["trace"]))))


if __name__ == "__main__":
    main()
