"""Compare the maximizer kernels that loaded against their references.

Usage: PYTHONPATH=src python3 benchmarks/bench_kernels.py [--n 2000] [--views 2] [--repeat 5] \
           > BENCH_kernels.json

Times, on a planted-partition graph: a raw single sweep with each kernel; the
level aggregations of one maximize() call with `aggregate` and with the scipy
reference `_aggregate` on the same level inputs; the graph maximize() hands
its restarts, built by `combined_graph` and by the numpy reference
`_combined_graph`; one maximize() call's restarts with the compiled
`run_restarts` (one call for all of them, on generator states seeded from
`default_rng([0, r])`) and with the reference `modularity._restarts`, which
builds each Generator and drives each restart from Python one sweep and one
level at a time through the loaded kernels; a full maximize() call and a full
run_mvmc() call (the driver: its time per iteration and its iteration count)
under each backend. It checks that both sides give identical sweeps,
aggregated graphs, combined graphs, restarts (labels, counters and, against
`_maximize_once` on `default_rng([0, r])`, the generators' final states) and
partitions. A readable report goes to stderr; stdout gets one JSON line with
every timing, the agreement flags, `mvmc._kernels.BACKEND` ("c", or "python"
when no C build can be had), the CPU count and the Python/numpy/scipy
versions. The timed maximize() and run_mvmc() calls run in fresh
interpreters, so no backend is swapped in: one with this interpreter's
environment, and one with no compiler on PATH and an empty build cache, where
the Python references run as on a machine without a compiler. Run with no
compiler on PATH, the benchmark times the references on both sides. The level
inputs are recorded by a pass-through wrapper around `modularity.aggregate`
during one maximize() call under the reference restart, since the compiled
one aggregates inside C.

The `startup` block holds, for the benchmark's setup probe (start, import
mvmc, one tiny maximize()) and for `import mvmc.cli`, the median wall time
over STARTUP_RUNS fresh interpreters and the scipy and numpy.ma modules the
code loaded.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

import numpy as np
import scipy

from mvmc import MvmcConfig, modularity, rb_modularity, run_mvmc
from mvmc._kernels import (BACKEND, _aggregate, _combined_graph, _move_pass, _state_row, aggregate,
                           combined_graph, move_pass, run_restarts, run_seeded, seeded_states)
from mvmc.modularity import maximize
from mvmc.synth import planted_partition_views


STARTUP_RUNS = 11
STARTUP_CODE = {
    "setup_probe": "from mvmc import ViewGraph, maximize; "
                   "maximize([ViewGraph.from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)])])",
    "import_cli": "import mvmc.cli",
}
LIST_MODULES = ("; import sys; print(*sorted(m for m in sys.modules if m == 'numpy.ma'"
                " or m.startswith(('numpy.ma.', 'scipy.')) or m == 'scipy'))")


def startup():
    """Per STARTUP_CODE entry: the median wall seconds of running it in a
    fresh interpreter, and the scipy and numpy.ma modules it loads (listed
    in one more run, so the listing is not timed)."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    result = {}
    for name, code in STARTUP_CODE.items():
        times = []
        for _ in range(STARTUP_RUNS):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True,
                           stdout=subprocess.DEVNULL)
            times.append(time.perf_counter() - t0)
        listed = subprocess.run([sys.executable, "-c", code + LIST_MODULES], env=env,
                                check=True, stdout=subprocess.PIPE, text=True)
        modules = listed.stdout.split()
        result[name] = {"median_s": statistics.median(times), "runs": STARTUP_RUNS,
                        "modules": modules}
        report(f"startup      [{name:11}] median {statistics.median(times) * 1e3:6.1f} ms"
               f" over {STARTUP_RUNS} interpreters; {len(modules)} scipy/numpy.ma modules")
    return result


def planted(args):
    graphs, _ = planted_partition_views(
        args.n, 8, 20.0 / args.n, 2.0 / args.n, n_views=args.views, seed=0
    )
    return graphs


def sweep_args(graphs, seed):
    n = graphs[0].n
    m2 = np.array([2.0 * g.total_edge_weight() for g in graphs])
    adj = sum((g.adjacency() * (1.0 / m) for g, m in zip(graphs, m2))).tocsr()
    deg = np.stack([g.degrees() for g in graphs], axis=1)
    alpha = 1.0 / (m2 * m2)
    order = np.random.default_rng(seed).permutation(n).astype(np.int64)
    return adj, deg, alpha, order


def run_sweep(kernel, adj, deg, alpha, order):
    n = deg.shape[0]
    comm = np.arange(n, dtype=np.int64)
    comm_tot = deg.copy()
    comm_size = np.ones(n, dtype=np.int64)
    empty_stack = np.empty(n, dtype=np.int64)
    indptr = adj.indptr.astype(np.int64)
    indices = adj.indices.astype(np.int64)
    t0 = time.perf_counter()
    gain, moves, _ = kernel(
        indptr,
        indices,
        adj.data,
        deg,
        alpha,
        comm,
        comm_tot,
        comm_size,
        empty_stack,
        0,
        order,
        1e-9,
    )
    return time.perf_counter() - t0, gain, moves, comm


def level_inputs(graphs):
    """The arguments of every `aggregate` call one maximize() call makes under
    the reference restart."""
    calls = []

    def record(*level):
        calls.append([a.copy() for a in level])
        return aggregate(*level)

    with mock.patch.object(modularity, "aggregate", record), \
            mock.patch.object(modularity, "run_restarts", modularity._restarts):
        maximize(graphs, seed=0)
    return calls


def restart_inputs(graphs):
    """The (graph0, deg0, alpha, gain_epsilon) maximize() hands its restarts."""
    seen = []

    def record(graph0, deg0, alpha, seed, restarts, eps):
        seen.append((graph0, deg0, alpha, eps))
        return modularity._restarts(graph0, deg0, alpha, seed, restarts, eps)

    with mock.patch.object(modularity, "run_restarts", record):
        maximize(graphs, seed=0, restarts=1)
    return seen[0]


def time_restarts(runner, inputs, restarts, repeat):
    """Best per-restart time over `repeat` calls running `restarts` restarts
    at seed 0, and the last call's results."""
    graph0, deg0, alpha, eps = inputs
    best = np.inf
    for _ in range(repeat):
        t0 = time.perf_counter()
        results = runner(graph0, deg0, alpha, 0, range(restarts), eps)
        best = min(best, (time.perf_counter() - t0) / restarts)
    return best, results


def same_restarts(a, b):
    """Equal labels and counters for every restart."""
    return len(a) == len(b) and all(
        np.array_equal(la, lb) and ca == cb for (la, ca), (lb, cb) in zip(a, b)
    )


def same_final_states(inputs, restarts):
    """True if each compiled restart at seed 0 leaves its state row where
    `_maximize_once` leaves `default_rng([0, r])`."""
    graph0, deg0, alpha, eps = inputs
    states = seeded_states(0, range(restarts))
    run_seeded(graph0, deg0, alpha, states, eps)
    for r, state in enumerate(states):
        rng = np.random.default_rng([0, r])
        modularity._maximize_once(graph0, deg0, alpha, rng, eps)
        if tuple(state.tolist()) != _state_row(rng.bit_generator.state):
            return False
    return True


def combined_inputs(graphs):
    """The arguments maximize() hands `combined_graph` at unit weights."""
    m2 = np.array([2.0 * g.total_edge_weight() for g in graphs])
    return (graphs[0].n, *modularity._view_edges(graphs), 1.0 / m2)


def time_combined(builder, args, repeat):
    """Best time of one `builder(*args)` over `repeat` calls, and its result."""
    best = np.inf
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = builder(*args)
        best = min(best, time.perf_counter() - t0)
    return best, result


def time_aggregation(kernel, calls, repeat):
    """Best per-level time over `repeat` passes, and the last pass's results."""
    best = np.inf
    for _ in range(repeat):
        t0 = time.perf_counter()
        results = [kernel(*level) for level in calls]
        best = min(best, (time.perf_counter() - t0) / len(calls))
    return best, results


def same_aggregation(a, b):
    """Equal community counts, and byte-identical label, CSR and degree arrays."""
    return a[1] == b[1] and all(
        x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
        for x, y in zip(a[:1] + a[2:], b[:1] + b[2:])
    )


def whole_calls_here(args):
    """Time maximize() and run_mvmc() with this interpreter's kernel; print
    one JSON line."""
    graphs = planted(args)
    t0 = time.perf_counter()
    part = maximize(graphs, seed=0)
    t1 = time.perf_counter()
    final, _trace = run_mvmc(graphs, MvmcConfig(seed=0))
    t2 = time.perf_counter()
    print(json.dumps({"backend": BACKEND, "seconds": t1 - t0, "labels": part.labels.tolist(),
                      "q": rb_modularity(graphs, part), "driver_seconds": t2 - t1,
                      "driver_iterations": final.meta["iterations"],
                      "driver_labels": final.labels.tolist()}))


def whole_calls_with(fallback, args):
    """maximize() and run_mvmc() in a fresh interpreter with this one's
    environment, or, with `fallback`, with no compiler on PATH and an empty
    build cache, so the Python references run."""
    cmd = [sys.executable, __file__, "--n", str(args.n), "--views", str(args.views),
           "--whole-calls-here"]
    with tempfile.TemporaryDirectory() as cache:
        env = dict(os.environ)
        if fallback:
            os.mkdir(os.path.join(cache, "bin"))
            env.update(PATH=os.path.join(cache, "bin"), XDG_CACHE_HOME=cache)
        out = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, check=True)
    res = json.loads(out.stdout.strip().splitlines()[-1])
    if fallback and res["backend"] != "python":
        raise SystemExit(f"the fallback interpreter ran the {res['backend']!r} kernels")
    return res


def report(line):
    print(line, file=sys.stderr)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=2000)
    ap.add_argument("--views", type=int, default=2)
    ap.add_argument("--repeat", type=int, default=5)
    ap.add_argument("--whole-calls-here", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.whole_calls_here:
        whole_calls_here(args)
        return

    graphs = planted(args)
    edges = sum(len(g.edge_u) for g in graphs)
    result = {"n": args.n, "views": args.views, "edges": edges, "repeat": args.repeat}
    report(f"n={args.n}, views={args.views}, total edges={edges}, backend={BACKEND}")
    if BACKEND == "python":
        report("note: the C kernel did not load, both paths are the Python reference")

    adj, deg, alpha, order = sweep_args(graphs, seed=1)
    sweeps = {}
    for label, kernel in ((BACKEND, move_pass), ("python", _move_pass)):
        times = []
        for _ in range(args.repeat):
            dt, gain, moves, comm = run_sweep(kernel, adj, deg, alpha, order)
            times.append(dt)
        sweeps[label] = comm
        result[f"sweep_{label}_s"] = min(times)
        report(
            f"single sweep [{label:6}] best {min(times) * 1e3:8.2f} ms"
            f"  (gain={gain:.6f}, moves={moves})"
        )

    calls = level_inputs(graphs)
    aggregated = {}
    for label, kernel in ((BACKEND, aggregate), ("scipy", _aggregate)):
        per_level, aggregated[label] = time_aggregation(kernel, calls, args.repeat)
        result[f"aggregate_{label}_s_per_level"] = per_level
        report(f"aggregation  [{label:6}] {per_level * 1e6:8.1f} us per level"
               f"  ({len(calls)} calls in one maximize)")
    result["levels_in_one_maximize"] = len(calls)

    edges_in = combined_inputs(graphs)
    combined = {}
    for label, builder in ((BACKEND, combined_graph), ("numpy", _combined_graph)):
        seconds, combined[label] = time_combined(builder, edges_in, args.repeat)
        result[f"combined_{label}_s"] = seconds
        report(f"combined     [{label:6}] {seconds * 1e3:8.3f} ms per graph"
               f"  ({len(combined[label][1])} entries)")

    inputs = restart_inputs(graphs)
    restarts = {}
    if run_restarts is None:
        report("note: no compiled restart routine, skipping the restart timing")
    else:
        for label, runner in (("c", run_restarts), ("driven", modularity._restarts)):
            per_restart, restarts[label] = time_restarts(
                runner, inputs, modularity.DEFAULT_RESTARTS, args.repeat)
            n_sweeps = sum(counts[0] for _labels, counts in restarts[label])
            result[f"restart_{label}_s_per_restart"] = per_restart
            report(f"restart      [{label:6}] {per_restart * 1e3:8.2f} ms per restart"
                   f"  ({len(restarts[label])} restarts, {n_sweeps} sweeps)")

    whole = {}
    for label, fallback in ((BACKEND, False), ("python", True)):
        res = whole_calls_with(fallback, args)
        whole[label] = res
        per_iteration = res["driver_seconds"] / res["driver_iterations"]
        result[f"maximize_{label}_s"] = res["seconds"]
        result[f"driver_{label}_s"] = res["driver_seconds"]
        result[f"driver_{label}_s_per_iteration"] = per_iteration
        result[f"driver_{label}_iterations"] = res["driver_iterations"]
        report(
            f"maximize     [{res['backend']:6}] {res['seconds']:8.2f} s"
            f"  (clusters={len(set(res['labels']))}, Q={res['q']:.4f})"
        )
        report(
            f"driver       [{res['backend']:6}] {per_iteration:8.2f} s per iteration"
            f"  ({res['driver_iterations']} iterations, {res['driver_seconds']:.2f} s)"
        )

    result["startup"] = startup()
    result["sweeps_agree"] = bool(np.array_equal(sweeps[BACKEND], sweeps["python"]))
    result["levels_agree"] = all(map(same_aggregation, aggregated[BACKEND], aggregated["scipy"]))
    result["combined_agree"] = all(
        a.dtype == b.dtype and a.tobytes() == b.tobytes()
        for a, b in zip(combined[BACKEND], combined["numpy"]))
    if restarts:
        result["restarts_agree"] = (same_restarts(restarts["c"], restarts["driven"])
                                    and same_final_states(inputs, modularity.DEFAULT_RESTARTS))
    result["maximize_agrees"] = whole[BACKEND]["labels"] == whole["python"]["labels"]
    result["driver_agrees"] = all(whole[BACKEND][key] == whole["python"][key]
                                  for key in ("driver_labels", "driver_iterations"))
    report(f"paths agree on the single-sweep partition: {result['sweeps_agree']}")
    report(f"paths agree on every aggregated level: {result['levels_agree']}")
    report(f"paths agree on the combined graph: {result['combined_agree']}")
    if restarts:
        report(f"paths agree on every restart (labels, counters, generator state): "
               f"{result['restarts_agree']}")
    report(f"paths agree on the final partition: {result['maximize_agrees']}")
    report(f"paths agree on the driver's partition and iterations: {result['driver_agrees']}")
    print(json.dumps({**result, "backend": BACKEND, "cpu_count": os.cpu_count(),
                      "python": platform.python_version(), "numpy": np.__version__,
                      "scipy": scipy.__version__}))


if __name__ == "__main__":
    main()
