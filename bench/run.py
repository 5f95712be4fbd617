"""mvmc benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The seed makes the workload's inputs;
the program sees only those inputs. With --trace 0 the run measures the
end-to-end metrics, with --trace 1 the per-layer ones (spans recorded by
bench/tracer.py around calls into mvmc's modules). Each metric is printed by
name and unit; the last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. Times are rescaled to a
reference host speed by the calibration loop of bench/speed.py; the
unscaled ones are printed too, and reported as `host.raw_wall_s`.

Workloads, all in one process with `jobs` at its default of 1:
- corpus_wide: `mvmc pipeline` on many small days. The day count drives the
  exact-ARI matrix, the average linkage and the ensemble graph; post volume
  drives text preprocessing and view building. Kernel speed matters little.
- corpus_deep: `mvmc pipeline` on a few days with many hashtags each. The
  maximizer and graph building dominate; temporal comparison is ~0.
- graphs_weak: `run_mvmc` on clearly detectable planted-partition views (two
  informative views, one noise view). Almost all time is in the move-pass
  kernel and the driver's iterations; no ingest, views or compare.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from corpus import CorpusSpec, generate, write_jsonl
from speed import HostSpeed, pin_to_one_cpu
from tracer import LAYER_METRICS

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Sizes are set for the pure-Python kernel on 2 CPUs. One corpus_wide
# operation takes 11-17 s, so a 30 s run holds 2 samples (workload.py always
# runs two, so on a slow host a run may overrun --seconds by one operation);
# corpus_deep and graphs_weak take 5-9 s, so a run holds 3-5. corpus_wide
# keeps 100 days, the count that drives the O(D^2) ARI matrix and O(D^3)
# linkage, and small days keep its kernel share near a third; its 4-hashtag
# groups need `min_cluster_size` 3 to pass the pipeline's small-cluster
# filter. graphs_weak is a clearly detectable planted instance (within-block
# degree 8 against 4.8 across, per view): nearer the detectability limit the
# driver's iteration count swings from 3 to 5 between instances, and the
# per-seed time spread grew wider than any usable bound.
WORKLOADS = {
    "corpus_wide": {
        "kind": "corpus",
        "corpus": CorpusSpec(groups=3, tags_per_group=4, days=100, posts_per_day=100,
                             words_per_post=20, churn=0.5, periods=3),
        "config": {"min_cluster_size": 3},
    },
    "corpus_deep": {
        "kind": "corpus",
        "corpus": CorpusSpec(groups=10, tags_per_group=40, days=3, posts_per_day=1500,
                             words_per_post=20, churn=0.5, periods=1),
        "config": {},
    },
    "graphs_weak": {
        "kind": "graphs",
        "graphs": {"n": 128, "blocks": 4, "p_in": 0.25, "p_out": 0.05, "views": 2,
                   "noise_views": 1, "instances": 3},
    },
}

# (name, unit, which direction is better)
END_TO_END = [
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ari_truth", "ratio", "higher"),
    ("ok_ratio", "ratio", "higher"),
]
PER_LAYER = [(name, unit, better) for name, unit, better, *_ in LAYER_METRICS] + [
    ("cli.artifact_bytes", "bytes", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("host.raw_wall_s", "s", "lower"),
    ("host.calibrate_s", "s", "lower"),
]

SETUP_PROBES = 11
SETUP_CODE = (
    "from mvmc import ViewGraph, maximize; "
    "maximize([ViewGraph.from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)])])"
)
DEADLINE_S = 170.0


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("MVMC_JOBS", "MVMC_NUMBA")}
    env["PYTHONPATH"] = str(SRC)
    return env


def setup_seconds(timeout: float) -> float:
    """Median over fresh interpreters of: start, import mvmc, one tiny
    maximize; each probe rescaled to the reference host speed."""
    speed = HostSpeed()
    times = []
    for _ in range(SETUP_PROBES):
        speed.start()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=child_env(), cwd=ROOT,
                       check=True, timeout=timeout, stdout=subprocess.DEVNULL)
        times.append(speed.stop()[1])
    return statistics.median(times)


def write_inputs(workload: dict, seed: int, work: Path) -> dict:
    """Generate the workload's inputs under `work`; returns the measuring job."""
    job = {"kind": workload["kind"], "src": str(SRC)}
    if workload["kind"] == "corpus":
        spec = workload["corpus"]
        posts, truth = generate(spec, seed)
        write_jsonl(posts, work / "posts.jsonl")
        (work / "truth.json").write_text(json.dumps(truth))
        config = {"input": work / "posts.jsonl", "output_dir": work / "out",
                  "meta_k": spec.periods, **workload["config"]}
        (work / "config.yaml").write_text("".join(f"{k}: {v}\n" for k, v in config.items()))
        job.update(config=str(work / "config.yaml"), output_dir=str(work / "out"),
                   truth=str(work / "truth.json"))
    else:
        graphs = workload["graphs"]
        job.update(graphs=graphs,
                   instance_seeds=[seed * 1000 + i for i in range(graphs["instances"])])
    return job


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "mvmc" / "__init__.py").is_file():
        print(f"error: no mvmc sources under {SRC}", file=sys.stderr)
        return 2

    started = perf_counter()
    cpu = pin_to_one_cpu()  # the measuring process and every probe inherit it
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        job = write_inputs(WORKLOADS[args.workload], args.seed, work)
        job.update(seconds=args.seconds, trace=args.trace)
        (work / "job.json").write_text(json.dumps(job))
        setup_s = None if args.trace else setup_seconds(timeout=30.0)
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("workload.py")), str(work / "job.json")],
            env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=DEADLINE_S - (perf_counter() - started),
        )
        if proc.returncode != 0:
            print(f"error: measuring process exited {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    metrics = result["metrics"]
    if setup_s is not None:
        metrics["setup_s"] = setup_s
    units = {name: unit for name, unit, _ in (PER_LAYER if args.trace else END_TO_END)}
    print("env " + json.dumps({**result["env"], "pinned_cpu": cpu}))
    print(f"artifact digest {' '.join(result['digest']) or '-'}")
    print(f"operations {result['attempted']}, failed {result['failed']}"
          f" (failed_ratio {result['failed'] / result['attempted']:.4f}),"
          f" wall_s samples {result['samples']} traced {result['traced']},"
          f" unscaled {result['raw_samples']}")
    for problem in result["problems"]:
        print(f"problem: {problem}")
    for name in units:
        if name in metrics:
            print(f"{name} {metrics[name]!r} {units[name]}")
        else:
            print(f"{name} missing")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
