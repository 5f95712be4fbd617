"""Time the temporal comparison stage against its references.

Usage: PYTHONPATH=src python3 benchmarks/bench_compare.py [--repeat 3] > BENCH_compare.json

Builds synthetic days of 2,000 hashtags each, every hashtag labelled with
one of 120 labels (seed 7), and drops the clusters smaller than 12 as the
pipeline does. Two lifetimes are covered, each at 30 and 100 days:
`new_per_day` 1000 replaces half the hashtags every day (day d holds
hashtags 1000*d .. 1000*d + 1999, so a hashtag lives 2 days, as in the
pipeline workloads), and `new_per_day` 0 keeps the same 2,000 hashtags on
every day. The comparison's work grows with `copresent_pairs`, the sum over
hashtags of C(days present, 2); the per-pair reference's with days^2 x
universe. For each case it times, best of `--repeat`, `pairwise_ari_matrix`
on the filtered days against `brute_ari_matrix` on the cross-leveled days
(the per-pair contingency-table reference in `tests/oracles.py`, with
`cross_level` counted in its time), and `average_linkage_merges` on 1 - ARI
against `brute_average_linkage`. Each side runs in a fresh interpreter, so
`rss_growth_mb` is its own peak RSS over that of the built days. `agree`
says that both matrices have the same bytes and both merge lists are equal.
One JSON line goes to stdout, with the kernel backend, the CPU count and the
Python/numpy/scipy versions.
"""
import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from mvmc import _kernels
from mvmc.compare import (
    LabeledClustering,
    average_linkage_merges,
    cross_level,
    pairwise_ari_matrix,
)
from mvmc.ensemble import filter_small_clusters

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tests"))
from oracles import brute_ari_matrix, brute_average_linkage  # noqa: E402

CASES = ((30, 1000), (100, 1000), (30, 0), (100, 0))  # (days, new hashtags per day)
HASHTAGS_PER_DAY = 2000
LABELS = 120
MIN_CLUSTER_SIZE = 12
SEED = 7


def synthetic_days(n_days: int, new_per_day: int) -> list[LabeledClustering]:
    rng = np.random.default_rng(SEED)
    days = []
    for d in range(n_days):
        labels = rng.integers(0, LABELS, size=HASHTAGS_PER_DAY).tolist()
        first = d * new_per_day
        days.append(filter_small_clusters(LabeledClustering(
            {f"h{first + i}": label for i, label in enumerate(labels)}, tag=f"d{d:03d}"),
            MIN_CLUSTER_SIZE))
    return days


def best_time(fn, repeat):
    """Least wall time of `repeat` calls, and the last call's result."""
    best = np.inf
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(side: str, n_days: int, new_per_day: int, repeat: int) -> dict:
    """Time one side on one case; runs in its own interpreter."""
    days = synthetic_days(n_days, new_per_day)
    inputs_rss = peak_rss_mb()
    if side == "incidences":
        matrix_s, matrix = best_time(lambda: pairwise_ari_matrix(days), repeat)
        linkage_s, merges = best_time(lambda: average_linkage_merges(1.0 - matrix), repeat)
    else:
        matrix_s, matrix = best_time(lambda: brute_ari_matrix(cross_level(days)), repeat)
        linkage_s, merges = best_time(lambda: brute_average_linkage(1.0 - matrix), repeat)
    lifetimes = np.unique(np.concatenate([list(c.assignments) for c in days]),
                          return_counts=True)[1]
    return {
        "ari_matrix_s": matrix_s,
        "linkage_s": linkage_s,
        "rss_growth_mb": peak_rss_mb() - inputs_rss,
        "universe": len(lifetimes),
        "copresent_pairs": int((lifetimes * (lifetimes - 1) // 2).sum()),
        "mean_days_per_hashtag": float(lifetimes.mean()),
        "digest": hashlib.sha256(matrix.tobytes() + repr(merges).encode()).hexdigest(),
    }


def run_side(side: str, n_days: int, new_per_day: int, repeat: int) -> dict:
    out = subprocess.run(
        [sys.executable, __file__, "--side", side, "--days", str(n_days),
         "--new-per-day", str(new_per_day), "--repeat", str(repeat)],
        check=True, capture_output=True, text=True)
    return json.loads(out.stdout)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeat", type=int, default=3)
    ap.add_argument("--side", choices=("incidences", "oracle"))
    ap.add_argument("--days", type=int)
    ap.add_argument("--new-per-day", type=int)
    args = ap.parse_args()
    if args.side:
        print(json.dumps(measure(args.side, args.days, args.new_per_day, args.repeat)))
        return
    cases = []
    for n_days, new_per_day in CASES:
        fast = run_side("incidences", n_days, new_per_day, args.repeat)
        brute = run_side("oracle", n_days, new_per_day, args.repeat)
        cases.append({
            "days": n_days,
            "new_per_day": new_per_day,
            "universe": fast["universe"],
            "mean_days_per_hashtag": fast["mean_days_per_hashtag"],
            "copresent_pairs": fast["copresent_pairs"],
            "ari_matrix_s": fast["ari_matrix_s"],
            "linkage_s": fast["linkage_s"],
            "rss_growth_mb": fast["rss_growth_mb"],
            "brute_ari_matrix_s": brute["ari_matrix_s"],
            "brute_linkage_s": brute["linkage_s"],
            "brute_rss_growth_mb": brute["rss_growth_mb"],
            "agree": fast["digest"] == brute["digest"],
        })
    print(json.dumps({
        "hashtags_per_day": HASHTAGS_PER_DAY,
        "labels": LABELS,
        "min_cluster_size": MIN_CLUSTER_SIZE,
        "seed": SEED,
        "cases": cases,
        "agree": all(c["agree"] for c in cases),
        "backend": _kernels.BACKEND,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }))


if __name__ == "__main__":
    main()
