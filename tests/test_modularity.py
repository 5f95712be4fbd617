import hashlib
import os
import shutil
import stat
import subprocess
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.csgraph import connected_components

import mvmc
from mvmc import (
    Clustering,
    GraphUsageError,
    ViewGraph,
    _kernels,
    maximize,
    modularity,
    rb_modularity,
)
from mvmc._kernels import _move_pass, aggregate, move_pass
from mvmc.graph import WEIGHT_FLOOR, densify_labels
from mvmc.synth import planted_partition_views

from oracles import combined_csr, dense_q, exhaustive_best_q, is_local_optimum

TWO_TRIANGLES = ViewGraph.from_edges(
    6, [(0, 1, 1), (1, 2, 1), (0, 2, 1), (3, 4, 1), (4, 5, 1), (3, 5, 1)]
)
SPLIT = Clustering(np.array([0, 0, 0, 1, 1, 1]))


requires_c = pytest.mark.skipif(
    _kernels.BACKEND != "c", reason="the compiled kernel did not load (no C compiler?)"
)


def child_env(**overrides) -> dict:
    """This environment, with the package importable and `overrides` set."""
    return {**os.environ, "PYTHONPATH": str(Path(mvmc.__file__).parents[1]), **overrides}


def random_graph(rng, n, p=0.4):
    edges = [
        (i, j, float(rng.uniform(0.1, 2)))
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]
    return ViewGraph.from_edges(n, edges)


def to_dense(g):
    a = np.zeros((g.n, g.n))
    for i, j, w in zip(g.edge_u, g.edge_v, g.edge_w):
        a[i, j] = a[j, i] = w
    return a


def test_trivial_partition_is_zero():
    trivial = Clustering(np.zeros(6, dtype=int))
    assert rb_modularity([TWO_TRIANGLES], trivial) == pytest.approx(0.0, abs=1e-12)


def test_two_triangles_value():
    assert rb_modularity([TWO_TRIANGLES], SPLIT) == pytest.approx(0.5)


def test_linearity_in_views():
    single = rb_modularity([TWO_TRIANGLES], SPLIT)
    double = rb_modularity([TWO_TRIANGLES, TWO_TRIANGLES], SPLIT)
    assert double == pytest.approx(2 * single, rel=1e-12)


def test_empty_view_contributes_zero():
    empty = ViewGraph.from_edges(6, [])
    assert rb_modularity([TWO_TRIANGLES, empty], SPLIT) == pytest.approx(0.5)


def test_mismatched_node_counts_rejected():
    with pytest.raises(GraphUsageError):
        rb_modularity([TWO_TRIANGLES, ViewGraph.from_edges(4, [])], SPLIT)


@pytest.mark.parametrize("params", [
    {"weights": [np.nan, 1.0]},
    {"weights": [np.inf, 1.0]},
    {"weights": [1.0, -np.inf]},
    {"resolutions": [np.nan, 1.0]},
    {"resolutions": [1.0, np.inf]},
    {"resolutions": [0.0, 1.0]},
    {"resolutions": [-1.0, 1.0]},
])
def test_non_finite_weights_and_bad_resolutions_rejected(params):
    graphs = [TWO_TRIANGLES, TWO_TRIANGLES]
    with pytest.raises(GraphUsageError):
        maximize(graphs, **params)
    with pytest.raises(GraphUsageError):
        rb_modularity(graphs, SPLIT, **params)


@pytest.mark.parametrize("params, message", [
    ({"seed": "3"}, "seed must be an integer >= 0"),
    ({"seed": -1}, "seed must be an integer >= 0"),
    ({"seed": 1.5}, "seed must be an integer >= 0"),
    ({"seed": None}, "seed must be an integer >= 0"),
    ({"restarts": 0}, "restarts must be positive"),
    ({"restarts": 2.5}, "restarts must be an integer"),
])
def test_maximize_rejects_bad_seeds_and_restarts(params, message):
    with pytest.raises(GraphUsageError, match=message):
        maximize([TWO_TRIANGLES], **params)


def test_maximize_takes_numpy_integers():
    part = maximize([TWO_TRIANGLES], seed=np.int64(3), restarts=np.int64(2))
    assert part.meta["seed"] == 3


def test_negative_weights_stay_allowed():
    graphs = [TWO_TRIANGLES, TWO_TRIANGLES]
    assert rb_modularity(graphs, SPLIT, weights=[-1.0, 1.0]) == 0.0
    assert maximize(graphs, weights=[-1.0, 2.0]).n_clusters >= 1


def test_label_permutation_invariance():
    rng = np.random.default_rng(6)
    g = random_graph(rng, 12)
    labels = rng.integers(0, 3, size=12)
    c1 = Clustering(np.array([0, 1, 2])[labels])
    c2 = Clustering(np.array([2, 0, 1])[labels])
    assert rb_modularity([g], c1) == pytest.approx(rb_modularity([g], c2), rel=1e-12)


def test_matches_dense_oracle():
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = int(rng.integers(3, 15))
        graphs = [random_graph(rng, n), random_graph(rng, n, 0.2)]
        w = rng.uniform(0.1, 2, size=2)
        gam = rng.uniform(0.3, 2, size=2)
        labels = np.zeros(n, dtype=int)
        labels[rng.random(n) < 0.5] = 1
        if labels.max() == 0:
            labels[0] = 0
        c = Clustering(densify_labels(labels))
        expected = dense_q([to_dense(g) for g in graphs], c.labels, w, gam)
        assert rb_modularity(graphs, c, w, gam) == pytest.approx(expected, rel=1e-9)


def test_maximize_two_triangles():
    part = maximize([TWO_TRIANGLES], seed=0)
    assert part.n_clusters == 2
    assert len(set(part.labels[:3])) == 1 and len(set(part.labels[3:])) == 1


def test_zero_weight_view_has_no_effect():
    noise = ViewGraph.from_edges(6, [])
    alone = maximize([TWO_TRIANGLES], seed=5)
    with_noise = maximize([TWO_TRIANGLES, noise], weights=[1.0, 0.0], seed=5)
    assert np.array_equal(alone.labels, with_noise.labels)


def test_huge_resolution_gives_singletons():
    ring = ViewGraph.from_edges(10, [(i, (i + 1) % 10, 1.0) for i in range(10)])
    part = maximize([ring], resolutions=[100.0], seed=0)
    assert part.n_clusters == 10


def test_final_value_at_least_singletons():
    rng = np.random.default_rng(8)
    for _ in range(10):
        n = int(rng.integers(4, 12))
        g = random_graph(rng, n)
        singletons = Clustering(np.arange(n))
        part = maximize([g], seed=int(rng.integers(1000)))
        assert rb_modularity([g], part) >= rb_modularity([g], singletons) - 1e-9


def test_aggregation_invariance():
    # modularity of the aggregated multigraph equals the original's
    rng = np.random.default_rng(9)
    g = random_graph(rng, 14)
    part = maximize([g], seed=3)
    labels = part.labels
    k = part.n_clusters
    dense = to_dense(g)
    sel = np.zeros((k, g.n))
    sel[labels, np.arange(g.n)] = 1.0
    agg = sel @ dense @ sel.T
    # aggregated Q under identity partition, including self-loop diagonal
    m2 = dense.sum()
    deg = agg.sum(axis=1)
    q_agg = (np.trace(agg) - (deg**2).sum() / m2) / m2
    assert rb_modularity([g], part) == pytest.approx(q_agg, abs=1e-9)


def combined_graph_case(rng):
    """Views over 0-200 nodes and one coefficient per view, for
    `_combined_graph`. In a third of the cases 3-4 views share every edge,
    with weights of their own, so the order of the additions shows; in a
    tenth, two views with the same edges and weights get coefficients c and
    -c, so every sum cancels. Otherwise 1-5 views, some of them empty. Any
    coefficient may be 0 or 5e-324 (whose products underflow to 0), and in a
    twentieth of the cases all are 0."""
    n = int(rng.choice([0, 1, 2, rng.integers(3, 30), rng.integers(30, 201)],
                       p=[0.05, 0.05, 0.05, 0.4, 0.45]))
    u, v = np.triu_indices(n, 1)
    density = rng.uniform(0.0, min(0.5, 12.0 / max(n, 1)))
    mode = rng.choice(["shared", "cancel", "random"], p=[0.3, 0.1, 0.6])
    n_views = {"shared": rng.integers(3, 5), "cancel": 2, "random": rng.integers(1, 6)}[mode]
    coeffs = rng.uniform(0.1, 2.0, n_views) * 10.0 ** rng.integers(-3, 4, n_views)
    if mode == "cancel":
        coeffs[1] = -coeffs[0]
    else:
        coeffs[rng.random(n_views) < 0.15] = 0.0
        coeffs[rng.random(n_views) < 0.1] = 5e-324
    if rng.random() < 0.05:
        coeffs[:] = 0.0
    present = rng.random(len(u)) < density
    weights = rng.uniform(WEIGHT_FLOOR, 2.0, len(u))
    graphs = []
    for _view in range(n_views):
        if mode == "random":  # edges of its own, none in 15% of the views
            present = rng.random(len(u)) < density * (rng.random() > 0.15)
        if mode != "cancel":
            weights = rng.uniform(WEIGHT_FLOOR, 2.0, len(u))
        graphs.append(ViewGraph.from_arrays(n, u[present], v[present], weights[present]))
    return mode, graphs, coeffs


def test_combined_graph_matches_scipy_bit_for_bit():
    rng = np.random.default_rng(1103)
    seen = Counter()
    for trial in range(600):
        mode, graphs, coeffs = combined_graph_case(rng)
        n = graphs[0].n
        adjs = [g.adjacency() for g in graphs]
        ref = combined_csr(adjs, coeffs, n)
        # the numpy reference and the routine maximize uses, compiled if loaded
        for build in (_kernels._combined_graph, _kernels.combined_graph):
            indptr, indices, data = build(n, *modularity._view_edges(graphs), coeffs)
            assert indptr.dtype == indices.dtype == np.int64 and data.dtype == np.float64
            assert np.array_equal(indptr, ref.indptr), trial
            assert np.array_equal(indices, ref.indices), trial
            assert data.tobytes() == ref.data.tobytes(), trial
        used = coeffs != 0.0
        products = [(g, g.edge_w * c) for g, c in zip(graphs, coeffs) if c != 0.0]
        pairs = np.unique(np.concatenate(
            [g.edge_u[x != 0.0] * n + g.edge_v[x != 0.0] for g, x in products] or [[]]))
        seen[f"{len(graphs)} views"] += 1
        seen["no nodes"] += n == 0
        seen["over 100 nodes"] += n > 100
        seen["empty view"] += n > 2 and any(g.edge_count == 0 for g in graphs)
        seen["a zero coefficient"] += 0 < used.sum() < len(graphs)
        seen["all coefficients zero"] += not used.any()
        seen["a product underflows"] += any((x == 0.0).any() for _g, x in products)
        seen["a sum cancels"] += len(data) < 2 * len(pairs)
        seen["order of additions shows"] += mode == "shared" and data.tobytes() != (
            combined_csr(adjs[::-1], coeffs[::-1], n).data.tobytes())
    assert min(seen[f"{k} views"] for k in range(1, 6)) > 0, seen
    assert all(seen[case] > 0 for case in (
        "no nodes", "over 100 nodes", "empty view", "a zero coefficient",
        "all coefficients zero", "a product underflows", "a sum cancels",
        "order of additions shows",
    )), seen


def combined_graph_arrays(rng):
    """`combined_graph` arguments of 0-120 nodes and 1-4 views, with each
    view's edges in a random order. In a quarter of the cases 3-4 views
    share every edge; otherwise a view may be empty. A coefficient may be 0, or
    1e300 or 1e-300 (whose products overflow to inf, or underflow to 0,
    and whose sums may then be nan), or the negative of another's, so sums
    cancel."""
    n = int(rng.choice([0, 1, 2, 3, rng.integers(4, 20), rng.integers(20, 121)]))
    u, v = np.triu_indices(n, 1)
    n_views = int(rng.integers(1, 5))
    shared = n_views >= 3 and rng.random() < 0.5
    present = rng.random(len(u)) < rng.uniform(0.0, 0.6)
    views = []
    for _view in range(n_views):
        if not shared:
            present = rng.random(len(u)) < rng.uniform(0.0, 0.6) * (rng.random() > 0.2)
        weights = rng.uniform(WEIGHT_FLOOR, 2.0, len(u))
        if rng.random() < 0.3:
            weights[rng.random(len(u)) < 0.3] = rng.choice([1.0, 1e-300, 1e300])
        picked = rng.permutation(np.flatnonzero(present))
        views.append((u[picked], v[picked], weights[picked]))
    coeffs = rng.uniform(0.1, 2.0, n_views) * 10.0 ** rng.integers(-3, 4, n_views)
    for k in range(n_views):
        coeffs[k] = rng.choice([coeffs[k], 0.0, 1e300, -1e300, 1e-300, -coeffs[0]],
                               p=[0.6, 0.15, 0.05, 0.05, 0.05, 0.1])
    if shared and rng.random() < 0.3:  # inf - inf on the entries of weight 1e300
        coeffs[:2] = 1e300, -1e300
    offsets = np.cumsum([0] + [len(eu) for eu, _ev, _ew in views])
    edge_u, edge_v, edge_w = (np.concatenate([view[k] for view in views]).astype(t)
                              for k, t in ((0, np.int64), (1, np.int64), (2, np.float64)))
    return n, offsets, edge_u, edge_v, edge_w, coeffs


@requires_c
def test_c_combined_graph_matches_reference():
    rng = np.random.default_rng(2803)
    seen = Counter()
    for trial in range(1200):
        args = combined_graph_arrays(rng)
        inputs = copied(list(args))
        got = _kernels.combined_graph(*args)
        with np.errstate(over="ignore", invalid="ignore"):
            want = _kernels._combined_graph(*args)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), trial
        for a, b in zip(args, inputs):
            assert np.array_equal(a, b)  # inputs are left as they were
        n, offsets, _u, _v, edge_w, coeffs = args
        with np.errstate(over="ignore"):
            products = [edge_w[lo:hi] * c for lo, hi, c in zip(offsets, offsets[1:], coeffs)
                        if c != 0.0]
        data = want[2]
        seen[f"n={min(n, 4)}"] += 1
        seen[f"{len(coeffs)} views"] += 1
        seen["empty view"] += n > 3 and (np.diff(offsets) == 0).any()
        seen["a zero coefficient"] += (coeffs == 0.0).any()
        seen["an entry of 3 views"] += len(products) >= 3 and len(data) < sum(map(len, products))
        seen["underflow to 0"] += any((x == 0.0).any() for x in products)
        seen["overflow to inf"] += np.isinf(data).any()
        seen["nan"] += np.isnan(data).any()
    assert all(seen[case] > 0 for case in (
        "n=0", "n=1", "n=2", "n=3", "n=4", "1 views", "2 views", "3 views", "4 views",
        "empty view", "a zero coefficient", "an entry of 3 views", "underflow to 0",
        "overflow to inf", "nan",
    )), seen


def combined_args():
    """`combined_graph` arguments, as a list, of two views on 6 nodes."""
    return [6, np.array([0, 3, 5]), np.array([0, 1, 2, 0, 3]), np.array([1, 2, 5, 4, 4]),
            np.array([1.0, 2.0, 0.5, 1.0, 3.0]), np.array([0.5, 2.0])]


def spoiled(position, k, value):
    """A spoiler setting entry k of argument `position` to value."""
    def spoil(args):
        a = args[position].copy()
        a[k] = value
        args[position] = a
    return spoil


BAD_COMBINED_ARGUMENTS = {
    "u equal to v": spoiled(2, 1, 2),
    "u above v": spoiled(2, 4, 5),
    "v out of range": spoiled(3, 2, 6),
    "negative u": spoiled(2, 0, -1),
    "a pair repeated within one view": lambda args: (spoiled(2, 1, 0)(args),
                                                     spoiled(3, 1, 1)(args)),
    "falling offsets": spoiled(1, 1, 6),
    "offsets not starting at 0": spoiled(1, 0, 1),
    "offsets not ending at the edge count": spoiled(1, 2, 4),
    "offsets one too short": lambda args: args.__setitem__(1, args[1][:-1]),
    "weights as complex": lambda args: args.__setitem__(4, args[4] + 0j),
    "negative node count": lambda args: args.__setitem__(0, -1),
}


@requires_c
@pytest.mark.parametrize("case", sorted(BAD_COMBINED_ARGUMENTS))
def test_c_combined_graph_rejects_bad_arguments(case):
    args = combined_args()
    assert _kernels.combined_graph(*args)[2].tolist() == _kernels._combined_graph(*args)[2].tolist()
    BAD_COMBINED_ARGUMENTS[case](args)
    with pytest.raises(ValueError):
        _kernels.combined_graph(*args)


def test_determinism():
    rng = np.random.default_rng(10)
    g = random_graph(rng, 20)
    a = maximize([g], seed=42)
    b = maximize([g], seed=42)
    assert np.array_equal(a.labels, b.labels)


def test_reaches_global_optimum_on_small_graphs():
    rng = np.random.default_rng(11)
    hits = 0
    for _ in range(20):
        n = int(rng.integers(4, 8))
        g = random_graph(rng, n, 0.5)
        part = maximize([g], seed=int(rng.integers(1000)))
        got = rb_modularity([g], part)
        best, _ = exhaustive_best_q([to_dense(g)], [1.0], [1.0])
        assert got <= best + 1e-9
        if got >= best - 1e-9:
            hits += 1
        else:
            assert is_local_optimum([to_dense(g)], part.labels, [1.0], [1.0])
    assert hits >= 18


def test_every_cluster_is_connected_in_its_positive_weight_views():
    # Louvain can return a disconnected community (Traag et al. 2019)
    rng = np.random.default_rng(14)
    for trial in range(200):
        n = int(rng.integers(4, 40))
        if trial % 2:
            graphs, _ = planted_partition_views(
                n, int(rng.integers(2, 5)), 0.5, 0.05, 1 + trial % 3, trial % 4 // 2, trial
            )
        else:
            graphs = [random_graph(rng, n, rng.uniform(0.05, 0.3)) for _ in range(1 + trial % 3)]
        weights = rng.choice([0.0, 0.3, 1.0, 2.0], len(graphs))
        resolutions = rng.uniform(0.2, 3.0, len(graphs))
        labels = maximize(graphs, weights, resolutions, seed=trial).labels
        assert np.array_equal(labels, densify_labels(labels))  # first-appearance order
        inside = {
            (u, v)
            for g, w in zip(graphs, weights) if w > 0
            for u, v in zip(g.edge_u.tolist(), g.edge_v.tolist()) if labels[u] == labels[v]
        }
        union = ViewGraph.from_edges(n, [(u, v, 1.0) for u, v in sorted(inside)])
        assert len(union.connected_components()) == labels.max() + 1, trial


def sweep_args(rng, n_views, ties=False):
    """One sweep's kernel arguments on a random multi-view graph, starting
    from a random partition that leaves some community ids unused. With
    `ties`, unit weights and a zero epsilon make equal scores common."""
    n = int(rng.integers(2, 30))
    graphs = [random_graph(rng, n, 0.3) for _ in range(n_views)]
    if ties:
        graphs = [ViewGraph.from_edges(n, [(i, j, 1.0) for i, j in zip(g.edge_u, g.edge_v)])
                  for g in graphs]
    m2 = np.array([2.0 * g.total_edge_weight() for g in graphs])
    m2[m2 == 0.0] = 1.0
    adj = sum(g.adjacency() / m for g, m in zip(graphs, m2)).tocsr()
    deg = np.stack([g.degrees() for g in graphs], axis=1)
    alpha = rng.uniform(0.5, 2.0, n_views) / m2**2
    comm = rng.integers(0, max(n // 2, 1), size=n).astype(np.int64)
    comm_tot = np.zeros((n, n_views))
    np.add.at(comm_tot, comm, deg)
    comm_size = np.bincount(comm, minlength=n).astype(np.int64)
    unused = np.flatnonzero(comm_size == 0)
    empty_stack = np.zeros(n, dtype=np.int64)
    empty_stack[: len(unused)] = unused
    order = rng.permutation(n).astype(np.int64)
    return [
        adj.indptr.astype(np.int64),
        adj.indices.astype(np.int64),
        adj.data,
        deg,
        alpha,
        comm,
        comm_tot,
        comm_size,
        empty_stack,
        len(unused),
        order,
        0.0 if ties else 1e-9,
    ]


def copied(args):
    return [a.copy() if isinstance(a, np.ndarray) else a for a in args]


@requires_c
def test_c_kernel_matches_python_reference():
    rng = np.random.default_rng(12)
    splits = 0
    for trial in range(150):
        args = sweep_args(rng, n_views=1 + trial % 3, ties=trial % 2 == 1)
        c_args, py_args = copied(args), copied(args)
        c_result = move_pass(*c_args)
        py_result = _move_pass(*py_args)
        assert c_result == py_result  # gain, moves and n_empty, exactly
        for k in (5, 6, 7, 8):  # comm, comm_tot, comm_size, empty_stack
            assert np.array_equal(c_args[k], py_args[k])
        splits += c_result[2] < args[9]  # a node took an unused id
    assert splits > 0


def deepest_level(sizes, n):
    """Most levels one round coarsened through, from the (size, k) of each
    `aggregate` call of a restart on an n-node graph."""
    depth = deepest = 0
    for size, k in sizes:
        depth = 0 if size == n else depth  # a round starts on the original graph
        depth += k < size
        deepest = max(deepest, depth)
    return deepest


def recording_aggregate(monkeypatch, sizes):
    """Make `modularity.aggregate` append (size, k) of each call to sizes."""
    inner = modularity.aggregate

    def record(indptr, indices, data, deg, comm):
        result = inner(indptr, indices, data, deg, comm)
        sizes.append((len(comm), result[1]))
        return result

    monkeypatch.setattr(modularity, "aggregate", record)


def coarsening_depth(monkeypatch, graphs, **kwargs):
    """Most levels one round of maximize() coarsened through, seen under the
    Python-driven restart, which calls `aggregate` once per level."""
    sizes = []
    monkeypatch.setattr(modularity, "run_restarts", modularity._restarts)
    recording_aggregate(monkeypatch, sizes)
    maximize(graphs, **kwargs)
    monkeypatch.undo()
    return deepest_level(sizes, graphs[0].n)


@requires_c
def test_maximize_labels_identical_under_both_backends(monkeypatch):
    planted, _ = planted_partition_views(48, 3, 0.3, 0.06, 2, 1, 5)
    # two cycles at a low resolution coarsen through several levels
    cycles = [ViewGraph.from_edges(128, [(i, (i + step) % 128, 1.0) for i in range(128)])
              for step in (1, 2)]
    assert coarsening_depth(monkeypatch, cycles, resolutions=[0.3, 0.3], seed=3) >= 3
    for graphs, seed, weights, resolutions in [
        (planted, 0, None, None),
        (planted, 1, [1.0, 0.6, 0.1], [1.0, 1.4, 0.7]),
        (planted, 2, None, [2.0, 2.0, 2.0]),
        (cycles, 3, None, [0.3, 0.3]),
    ]:
        compiled = maximize(graphs, weights, resolutions, seed=seed)
        # the reference: each restart driven from Python through the Python
        # sweep and the scipy aggregation
        monkeypatch.setattr(modularity, "run_restarts", modularity._restarts)
        monkeypatch.setattr(modularity, "move_pass", _kernels._move_pass)
        monkeypatch.setattr(modularity, "aggregate", _kernels._aggregate)
        reference = maximize(graphs, weights, resolutions, seed=seed)
        monkeypatch.undo()
        assert np.array_equal(compiled.labels, reference.labels)
        assert compiled.meta == reference.meta  # sweeps, moves, levels, winning restart


def test_maximize_scores_each_distinct_partition_once(monkeypatch):
    """The winner, its score and `meta` equal those of scoring every restart,
    and `_rb_sum` runs once per distinct restart partition."""
    rb_sum, restarts = modularity._rb_sum, modularity.run_restarts
    scored, runs = [], []

    def spy(*args):
        scored.append(args)
        return rb_sum(*args)

    def recording(*args):
        runs.extend(restarts(*args))
        return runs[len(runs) - len(args[4]):]

    monkeypatch.setattr(modularity, "_rb_sum", spy)
    monkeypatch.setattr(modularity, "run_restarts", recording)
    differing = 0
    rng = np.random.default_rng(12)
    for trial in range(60):
        graphs, _ = planted_partition_views(
            int(rng.integers(12, 80)), int(rng.integers(2, 5)), float(rng.uniform(0.15, 0.5)),
            float(rng.uniform(0.02, 0.12)), int(rng.integers(1, 4)), int(rng.integers(0, 2)),
            trial,
        )
        resolutions = None if trial % 2 else rng.uniform(0.5, 2.0, len(graphs)).tolist()
        scored.clear()
        runs.clear()
        got = maximize(graphs, resolutions=resolutions, seed=trial)
        distinct = {labels.tobytes() for labels, _counts in runs}
        assert len(scored) == len(distinct)
        differing += len(distinct) > 1
        # the unmemoised loop: every restart scored, first best by GAIN_EPSILON
        _graphs, _labels, *params = scored[0]
        best_q, best_r = -np.inf, 0
        for r, (labels, _counts) in enumerate(runs):
            q = rb_sum(graphs, labels, *params)
            if q > best_q + modularity.GAIN_EPSILON:
                best_q, best_r = q, r
        assert np.array_equal(got.labels, runs[best_r][0])
        assert (got.meta["best_restart"], got.meta["modularity"]) == (best_r, best_q)
    assert differing >= 10


@requires_c
def test_a_wrapped_kernel_sees_the_first_restart(monkeypatch):
    graphs, _ = planted_partition_views(48, 3, 0.3, 0.06, 2, 1, 5)
    plain = maximize(graphs, seed=4)
    calls = []

    def counting(*args):
        calls.append(len(args[5]))  # the sweep's node count
        return move_pass(*args)

    monkeypatch.setattr(modularity, "move_pass", counting)
    wrapped = maximize(graphs, seed=4)
    monkeypatch.undo()
    first = maximize(graphs, seed=4, restarts=1)  # the same first restart, alone
    assert np.array_equal(plain.labels, wrapped.labels) and plain.meta == wrapped.meta
    assert 0 < len(calls) == first.meta["sweeps"] < plain.meta["sweeps"]


def restart_graphs(rng, trial):
    """Views of one random instance of 0-400 nodes: sparse random views,
    some of them empty, with isolated nodes and several components; planted
    partitions with a noise view; cycles, which coarsen through several
    levels at the low resolutions `restart_case` gives them; and graphs of
    at most 3 nodes."""
    kind = trial % 4
    n_views = 1 + trial // 4 % 4
    if kind == 0:
        n = int(rng.integers(0, 401))
        graphs = []
        for _ in range(n_views):
            m = int(n * rng.choice([0.0, 0.3, 1.0, 3.0]))
            i, j = rng.integers(0, max(n, 1), size=(2, m))
            pairs = np.unique(np.stack([np.minimum(i, j), np.maximum(i, j)])[:, i != j], axis=1)
            graphs.append(ViewGraph.from_arrays(n, *pairs, rng.uniform(0.1, 2.0, pairs.shape[1])))
        return graphs
    if kind == 1:
        n = int(rng.integers(8, 401))
        return planted_partition_views(
            n, int(rng.integers(2, 9)), 0.3, 0.02, n_views, int(rng.integers(0, 2)), trial
        )[0]
    if kind == 2:
        n = int(rng.integers(16, 401))
        return [ViewGraph.from_edges(n, [(i, (i + step) % n, 1.0) for i in range(n)])
                for step in range(1, n_views + 1)]
    n = int(rng.integers(0, 4))
    return [random_graph(rng, n, 0.5) for _ in range(n_views)]


@requires_c
def test_c_restart_matches_python_reference(monkeypatch):
    """The compiled restarts against `_maximize_once` (which drives the C sweep
    and aggregation, each checked against its Python reference above) on
    `default_rng([seed, r])`: the same labels, sweeps, moves and levels, and
    each restart's state row left in that generator's final state."""
    rng = np.random.default_rng(15)
    seen = set()
    for trial in range(240):
        graphs = restart_graphs(rng, trial)
        weights = rng.choice([0.0, 0.5, 1.0, 2.0], len(graphs))
        resolutions = (rng.uniform(0.05, 0.4, len(graphs)) if trial % 4 == 2
                       else rng.uniform(0.2, 3.0, len(graphs)))
        seed = (trial, 2**32 + 5, 2**70 + 3)[trial % 3]
        cases = []

        def both(graph0, deg0, alpha, seed, restarts, eps):
            states = _kernels.seeded_states(seed, restarts)
            compiled = _kernels.run_seeded(graph0, deg0, alpha, states, eps)
            assert [(labels.tolist(), counts) for labels, counts in compiled] == [
                (labels.tolist(), counts)
                for labels, counts in _kernels.run_restarts(graph0, deg0, alpha, seed, restarts,
                                                            eps)]
            for r, state, run in zip(restarts, states, compiled):
                twin = np.random.default_rng([seed, r])
                sizes = []
                with pytest.MonkeyPatch.context() as patch:
                    recording_aggregate(patch, sizes)
                    reference = modularity._maximize_once(graph0, deg0, alpha, twin, eps)
                cases.append((run, reference, tuple(state.tolist()),
                              _kernels._state_row(twin.bit_generator.state),
                              deepest_level(sizes, len(deg0))))
            return compiled

        monkeypatch.setattr(modularity, "run_restarts", both)
        maximize(graphs, weights, resolutions, seed=seed, restarts=1 + (trial % 5 == 0))
        monkeypatch.undo()
        assert len(cases) == 1 + (trial % 5 == 0)
        for (labels, counts), (ref_labels, ref_counts), state, ref_state, depth in cases:
            assert labels.dtype == ref_labels.dtype and np.array_equal(labels, ref_labels), trial
            assert counts == ref_counts, trial
            assert state == ref_state, trial
        n = graphs[0].n
        union = sum((g.adjacency() for g in graphs), sparse.csr_matrix((n, n)))
        isolated = int((union.getnnz(axis=1) == 0).sum())
        seen.add(("empty graph", n == 0))
        seen.add(("empty view", n > 3 and any(g.edge_count == 0 for g in graphs)))
        seen.add(("isolated node", n > 3 and isolated > 0))
        seen.add(("disconnected", connected_components(union)[0] - isolated > 1))
        seen.add(("three levels", depth >= 3))
        seen.add(("four views", len(graphs) == 4))
        seen.add(("a buffered half draw left", state[4] == 1))
    assert {kind for kind, hit in seen if hit} == {
        "empty graph", "empty view", "isolated node", "disconnected", "three levels",
        "four views", "a buffered half draw left",
    }


def numpy_draw(state, n):
    """`permutation(n)` of numpy's Generator in the state row `state`, which
    is left in the generator's final state: what `draw_order` must do."""
    bits = np.random.PCG64()
    hi, lo, inc_hi, inc_lo, has_uint32, uinteger = map(int, state)
    bits.state = {"bit_generator": "PCG64",
                  "state": {"state": hi << 64 | lo, "inc": inc_hi << 64 | inc_lo},
                  "has_uint32": has_uint32, "uinteger": uinteger}
    order = np.random.Generator(bits).permutation(n)
    state[:] = _kernels._state_row(bits.state)
    return order


@requires_c
def test_c_draw_is_numpys_permutation():
    for n in range(2001):
        ours, numpys = _kernels.seeded_states(n, range(2)), _kernels.seeded_states(n, range(2))
        for r in range(2):
            for _ in range(2):  # the second draw starts where the first left the state
                assert np.array_equal(_kernels.draw_order(ours[r], n),
                                      numpy_draw(numpys[r], n)), (n, r)
        assert np.array_equal(ours, numpys), n
        generator = np.random.default_rng([n, 1])
        generator.permutation(n), generator.permutation(n)
        assert tuple(ours[1].tolist()) == _kernels._state_row(generator.bit_generator.state)


def test_seeded_states_are_numpys_and_cached():
    for seed in (0, 7, 2**32 + 5, 2**70 + 3):
        states = _kernels.seeded_states(seed, range(1, 16))
        assert states.dtype == np.uint64 and states.shape == (15, _kernels.STATE_SLOTS)
        assert [tuple(row) for row in states.tolist()] == [
            _kernels._state_row(np.random.default_rng([seed, r]).bit_generator.state)
            for r in range(1, 16)]
        states[:] = 0  # a copy: the cached rows stay as they were
        assert _kernels.seeded_states(seed, range(1, 16)).any()
    assert _kernels.seeded_states(3, range(0)).shape == (0, _kernels.STATE_SLOTS)


def test_draw_check_rejects_a_wrong_draw():
    assert _kernels._draws_match(numpy_draw)
    assert not _kernels._draws_match(lambda state, n: numpy_draw(state, n)[::-1])
    # the right orders, but a state row left where it started
    assert not _kernels._draws_match(lambda state, n: numpy_draw(state.copy(), n))


@requires_c
def test_wrong_compiled_draw_loads_no_c_routine(tmp_path):
    """A library whose draw differs from numpy's, cached under the real
    source's name, is refused at load: every kernel is the Python one."""
    source = _kernels.SOURCE.read_bytes()
    wrong = source.replace(b"order[i] = i;", b"order[i] = n - 1 - i;")
    assert wrong != source
    digest = hashlib.sha256(source + "\0".join(_kernels.CFLAGS).encode()).hexdigest()
    cache = tmp_path / "mvmc"
    cache.mkdir(mode=0o700)
    compiler = shutil.which("cc") or shutil.which("gcc")
    subprocess.run(
        [compiler, *_kernels.CFLAGS, "-x", "c", "-", "-o", str(cache / f"move_pass-{digest}.so")],
        input=wrong, capture_output=True, check=True,
    )
    env = child_env(XDG_CACHE_HOME=str(tmp_path))
    code = (
        "from mvmc import _kernels, modularity;"
        "print(_kernels.BACKEND, _kernels.move_pass is _kernels._move_pass,"
        " _kernels.aggregate is _kernels._aggregate, _kernels.run_restarts,"
        " modularity.run_restarts is modularity._restarts)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert out == ["python", "True", "True", "None", "True"]


@pytest.mark.skipif(
    not (shutil.which("cc") or shutil.which("gcc")), reason="no C compiler"
)
def test_kernel_source_compiles_without_warnings(tmp_path):
    compiler = shutil.which("cc") or shutil.which("gcc")
    build = subprocess.run(
        [compiler, *_kernels.CFLAGS, "-Wall", "-Wextra", "-Werror", "-x", "c",
         str(_kernels.SOURCE), "-o", str(tmp_path / "kernel.so")],
        capture_output=True, text=True, timeout=120,
    )
    assert build.returncode == 0, build.stderr


SCRATCH_CHECK = """
import json

import numpy as np
from scipy import sparse
from mvmc import ViewGraph, _kernels, maximize, modularity
from mvmc.synth import planted_partition_views
from mvmc.views import _unit_rows

assert _kernels.BACKEND == "c"
compiled = modularity.run_restarts


def restarts(graphs, kernels=None):
    # maximize's labels and meta, and each restart's labels and counts: from
    # the compiled restart, or from _restarts driving the given sweep and
    # aggregation
    runs = []

    def run(*args):
        if kernels is None:
            runs.extend(compiled(*args))
            return runs
        modularity.move_pass, modularity.aggregate = kernels
        try:
            runs.extend(modularity._restarts(*args))
        finally:
            modularity.move_pass, modularity.aggregate = _kernels.move_pass, _kernels.aggregate
        return runs

    modularity.run_restarts = run
    try:
        clustering = maximize(graphs, seed=5)
    finally:
        modularity.run_restarts = compiled
    return clustering.labels.tolist(), clustering.meta, [(l.tolist(), c) for l, c in runs]


def graph(n, edges):
    return ViewGraph.from_edges(n, [(i, j, 1.0) for i, j in edges])


triangles = graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
planted = planted_partition_views(30, 3, 0.5, 0.05, 2, 1, 7)[0]
for graphs in ([graph(0, [])], [graph(1, [])], [graph(2, [(0, 1)])],
               [graph(6, []), triangles], planted):
    want = restarts(graphs, (_kernels._move_pass, _kernels._aggregate))
    assert restarts(graphs) == want, graphs[0].n
    assert restarts(graphs, (_kernels.move_pass, _kernels.aggregate)) == want, graphs[0].n
assert restarts(planted)[1]["levels"] >= 16  # every restart coarsens

# combined graphs: no nodes, no edges, one node's entries from three views,
# a zero coefficient, a sum that cancels
for graphs, coeffs in [([graph(0, [])], [1.0]), ([graph(3, []), graph(3, [])], [1.0, 2.0]),
                       ([graph(4, [(0, 1), (0, 2)]), graph(4, [(0, 1), (2, 3)]),
                         graph(4, [(0, 1), (1, 3)])], [0.5, 3.0, 0.25]),
                       (planted, [1.0, 0.0, 2.0]), (planted[:2] * 2, [1.0, 2.0, -1.0, -2.0])]:
    args = (graphs[0].n, *modularity._view_edges(graphs), np.array(coeffs))
    got, want = _kernels.combined_graph(*args), _kernels._combined_graph(*args)
    assert [(a.dtype, a.tobytes()) for a in got] == [(a.dtype, a.tobytes()) for a in want]

views = [
    (sparse.csr_matrix([[1.0, 0.0], [2.0, 1.0]]), 1),  # n = 2
    (sparse.csr_matrix([[1.0, 0.0, 2.0], [0.0, 1.0, 1.0], [1.0, 1.0, 0.0]]), 2),  # k = n - 1
    (sparse.csr_matrix((4, 3)), 2),  # all-zero rows: nnz = 0
    (sparse.csr_matrix((3, 0)), 1),  # no columns
]
for counts, k in views:
    args = (counts.indptr, counts.indices, _unit_rows(counts), counts.shape[1], k)
    got, want = _kernels.knn_edges(*args), _kernels._knn_edges(*args)
    assert [(a.dtype, a.tolist()) for a in got] == [(a.dtype, a.tolist()) for a in want], k

# views to format: the k-NN ones, then one with 17-digit and exponent reprs
for counts, _k in views + [(sparse.csr_matrix([[0.1 + 0.2, 5e-324], [1e16, 0.0]]), 1)]:
    rows, cols = counts.shape
    args = (counts.indptr, counts.indices, counts.data, ("r0 é", "r1", "r2", "r3")[:rows],
            tuple(f"c{j}😀" for j in range(cols)))
    assert _kernels.triplet_bytes(*args) == _kernels._triplet_bytes(*args), counts.shape

# one batch of the record reader per format, holding 20,000 distinct
# tokens (its name table grows from 8,192 slots to 65,536), a declined line
# and markup, against the tokens of preprocess_text
from mvmc.ingest import _side_record, parse_json_record, parse_tsv_record, preprocess_text

words = [f"w{i}x" for i in range(20000)]
texts = [" ".join(words[:10000]), *words[10000:], "RT @a: #b www.c.d http://e RT", "Σ café",
         "awww.x @uhttp://x", "", " ".join(words[::-1])]
for tsv, parse in ((False, parse_json_record), (True, parse_tsv_record)):
    lines = [(f"p{i}\\t2020-03-01\\tu\\t{t}\\t#a,#b\\t\\n" if tsv else json.dumps(
        {"post_id": f"p{i}", "timestamp": "2020-03-01", "user_id": "u", "text": t}) + "\\n")
        .encode() for i, t in enumerate(texts)]
    text, at = b"".join(lines), np.cumsum([0, *map(len, lines)])
    state = np.zeros(_kernels.READER_SLOTS, np.int64)
    declined, out = _kernels.read_records(state, text, at, tsv=tsv)
    assert declined == 1
    side = _side_record(str(lines[-4], "utf-8"), 1, None, parse)
    _, out = _kernels.read_records(state, text, at, side, [0, len(side)], tsv=tsv)
    names = out[7].decode().split("\\n")[:-1]
    tokens = [name for name, key in zip(names, out[9].tolist()) if key == 3]
    counts = out[1].reshape(-1, 4)[:, 3]
    got = np.split(np.array(tokens, object)[out[4]], np.cumsum(counts)[:-1])
    assert [g.tolist() for g in got] == [preprocess_text(t) for t in texts]
    _kernels.read_records(state)
print("ok")
"""


@requires_c
@pytest.mark.parametrize("perturb", ["165", "63"])
def test_compiled_scratch_is_written_before_it_is_read(perturb):
    """The compiled routines (the record reader's growing name table included)
    against their Python references at the sizes their carved scratch must
    handle, in a process where glibc fills each allocation with a non-zero
    byte (MALLOC_PERTURB_), so a scratch slot read before it is written
    shows up. A restart whose link or dwork slots start
    non-zero can loop forever, hence the timeout.

    glibc fills fresh memory with the byte's complement and freed memory
    with the byte, and recycled memory keeps the latter. As a double, 0xA5...
    (165) is about -1e-127, too small to change a sum of similarities, so
    the check runs again with 63: 0x3F... is about 3e-4, and 0xC0... -8.6e3."""
    env = child_env(MALLOC_PERTURB_=perturb)
    out = subprocess.run(
        [sys.executable, "-c", SCRATCH_CHECK], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["ok"]


def aggregate_args(rng, n_views):
    """A level graph for `aggregate` and a partition of it. Half the cases
    are an aggregated graph, with a diagonal and rows in the order aggregation
    leaves them; the rest have each row's entries shuffled. A quarter carry
    weights of +-1 and +-0.5, whose sums can cancel to exactly zero.
    Partitions range from one community to all singletons, and may leave ids
    unused."""
    n = int(rng.integers(1, 30))
    graphs = [random_graph(rng, n, rng.uniform(0.0, 0.4)) for _ in range(n_views)]
    coeff = rng.uniform(0.1, 2.0, n_views)
    adj = combined_csr([g.adjacency() for g in graphs], coeff, n)
    indptr, indices, data = adj.indptr.astype(np.int64), adj.indices.astype(np.int64), adj.data
    deg = np.stack([g.degrees() for g in graphs], axis=1)
    if rng.random() < 0.5:
        first = rng.integers(0, n, size=n)
        _dense, n, indptr, indices, data, deg = _kernels._aggregate(
            indptr, indices, data, deg, first
        )
    else:
        order = np.concatenate([
            indptr[i] + rng.permutation(indptr[i + 1] - indptr[i]) for i in range(n)
        ]).astype(np.int64)
        indices, data = indices[order], data[order]
    if rng.random() < 0.25:
        data = rng.choice([-1.0, -0.5, 0.5, 1.0], size=len(data))
    kind = rng.integers(0, 4)
    if kind == 0:
        comm = np.zeros(n, dtype=np.int64)
    elif kind == 1:
        comm = rng.permutation(n).astype(np.int64)
    else:
        comm = rng.integers(0, int(rng.integers(1, n + 1)), size=n).astype(np.int64)
    return [indptr, indices, data, deg, comm]


def assert_same_aggregation(got, expected):
    assert got[1] == expected[1]  # k
    for a, b in zip(got[:1] + got[2:], expected[:1] + expected[2:]):
        # the same dtype and shape, and floating-point sums equal bit for bit
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@requires_c
def test_c_aggregate_matches_python_reference():
    rng = np.random.default_rng(13)
    kinds = set()
    for trial in range(1200):
        args = aggregate_args(rng, n_views=1 + trial % 3)
        inputs = copied(args)
        expected = _kernels._aggregate(*args)
        assert_same_aggregation(aggregate(*args), expected)
        for a, b in zip(args, inputs):
            assert np.array_equal(a, b)  # inputs are left as they were
        degrees = np.diff(args[0])
        kinds.add(("isolated node", bool((degrees == 0).any())))
        kinds.add(("one community", expected[1] == 1))
        kinds.add(("all singletons", expected[1] == len(args[4])))
        kinds.add(("unsorted row", any(
            np.any(np.diff(args[1][lo:hi]) < 0) for lo, hi in zip(args[0], args[0][1:])
        )))
        rows = np.repeat(expected[0], degrees)
        cells = len(set(zip(rows.tolist(), expected[0][args[1]].tolist())))
        kinds.add(("zero sum dropped", len(expected[3]) < cells))
    assert {kind for kind, seen in kinds if seen} == {
        "isolated node", "one community", "all singletons", "unsorted row", "zero sum dropped"
    }


def test_aggregate_without_edges():
    args = [np.zeros(4, np.int64), np.zeros(0, np.int64), np.zeros(0), np.ones((3, 2)),
            np.array([2, 0, 2])]
    got = aggregate(*args)
    assert_same_aggregation(got, _kernels._aggregate(*args))
    dense, k, indptr, _indices, _data, deg = got
    assert dense.tolist() == [0, 1, 0] and k == 2
    assert indptr.tolist() == [0, 0, 0] and deg.tolist() == [[2.0, 2.0], [1.0, 1.0]]


def run_without_compiler(tmp_path, code):
    """Run ``code`` in a child with no compiler on PATH and an empty build
    cache, and return its stdout lines."""
    (tmp_path / "bin").mkdir()
    env = child_env(PATH=str(tmp_path / "bin"), XDG_CACHE_HOME=str(tmp_path))
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True,
    ).stdout.splitlines()


def test_without_compiler_falls_back_to_python(tmp_path):
    """Without a compiler a partition is the one this process finds, there
    is no record reader, and nothing is built or cached."""
    code = (
        "from mvmc import _kernels, maximize;"
        "from mvmc.synth import planted_partition_views;"
        "g, _ = planted_partition_views(48, 3, 0.3, 0.06, 2, 1, 5);"
        "print(_kernels.BACKEND, *maximize(g, seed=1).labels);"
        "print(_kernels.read_records)"
    )
    out = run_without_compiler(tmp_path, code)
    assert out[0].split()[0] == "python"
    graphs, _ = planted_partition_views(48, 3, 0.3, 0.06, 2, 1, 5)
    assert [int(x) for x in out[0].split()[1:]] == maximize(graphs, seed=1).labels.tolist()
    assert out[1] == "None"
    assert list(tmp_path.iterdir()) == [tmp_path / "bin"]


FALLBACK_CHECK = """
from scipy import sparse
from mvmc import ViewGraph, ViewMatrix, _kernels, knn_graph, maximize, modularity
from mvmc.ingest import group_by_day, parse_tsv_record

print(_kernels.BACKEND, _kernels.move_pass is _kernels._move_pass,
      _kernels.aggregate is _kernels._aggregate, _kernels.knn_edges is _kernels._knn_edges,
      _kernels.combined_graph is _kernels._combined_graph, _kernels.run_restarts,
      _kernels.run_seeded, _kernels.draw_order, modularity.run_restarts is modularity._restarts,
      _kernels.triplet_bytes is _kernels._triplet_bytes, _kernels.read_records)
g = ViewGraph.from_edges(6, [(0, 1, 1), (1, 2, 1), (0, 2, 1), (3, 4, 1), (4, 5, 1), (3, 5, 1)])
print(maximize([g], seed=0).n_clusters)
m = ViewMatrix.from_matrix(sparse.csr_matrix([[1., 0.], [1., 0.], [0., 1.]]),
                           ("a", "b", "c"), ("x", "y"))
print(knn_graph(m, k=1).edge_count)
texts = ["RT @who: Stay HOME #x", "", "home ΣΑΣ"]
(day,) = group_by_day([parse_tsv_record(f"p{i}\\t2020-03-01\\tu\\t{text}\\t\\t")
                       for i, text in enumerate(texts)]).values()
print(day.tokens.tolist(), day.n_tokens.tolist(), day.corpus.tokens.names)
"""


def test_env_flag_selects_fallback(tmp_path):
    """An environment with no compiler on PATH selects the fallback: every
    kernel is its Python reference, and the Python routes still cluster two
    triangles apart, build a one-edge k-NN graph and code the texts of a
    batch of posts."""
    out = run_without_compiler(tmp_path, FALLBACK_CHECK)
    assert out[0].split() == ["python", "True", "True", "True", "True", "None", "None", "None",
                              "True", "True", "None"]
    assert out[1:] == ["2", "1", "[0, 1, 1, 2] [2, 0, 2] ['stay', 'home', 'σασ']"]


@requires_c
def test_build_is_cached_under_a_private_directory(tmp_path):
    env = child_env(XDG_CACHE_HOME=str(tmp_path))
    code = "from mvmc import _kernels; print(_kernels.BACKEND)"
    cache = tmp_path / "mvmc"
    digest = hashlib.sha256(
        _kernels.SOURCE.read_bytes() + "\0".join(_kernels.CFLAGS).encode()
    ).hexdigest()
    library = cache / f"move_pass-{digest}.so"
    for _ in range(2):
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "c"
        built = library.stat().st_mtime_ns
    assert stat.S_IMODE(cache.stat().st_mode) == 0o700
    assert list(cache.iterdir()) == [library]  # no temporary file left behind
    assert library.stat().st_mtime_ns == built


def read_only(a):
    a = a.copy()
    a.flags.writeable = False
    return a


BAD_ARGUMENTS = {
    "indptr too short": (0, lambda a: a[:-1]),
    "deg missing a row": (3, lambda a: a[:-1]),
    "comm_tot with a column too many": (6, lambda a: np.zeros((len(a), 3))),
    "comm as int32": (5, lambda a: a.astype(np.int32)),
    "comm_tot not C-contiguous": (6, np.asfortranarray),
    "comm_size read-only": (7, read_only),
    "n_empty above n": (9, lambda a: 99),
    "node index out of range": (1, lambda a: a + 100),
    "negative node in order": (10, lambda a: a - 100),
}


@requires_c
@pytest.mark.parametrize("case", sorted(BAD_ARGUMENTS))
def test_c_kernel_rejects_bad_arguments(case):
    position, spoil = BAD_ARGUMENTS[case]
    args = sweep_args(np.random.default_rng(3), n_views=2)
    args[position] = spoil(args[position])
    with pytest.raises(ValueError):
        move_pass(*args)


def first_negative(a):
    a = a.copy()
    a[0] = -1
    return a


BAD_AGGREGATE_ARGUMENTS = {
    "community id equal to size": (4, lambda a: np.full_like(a, len(a))),
    "negative neighbour index": (1, first_negative),
    "indptr too short": (0, lambda a: a[:-1]),
    "indptr past the entries": (0, lambda a: a + 100),
    "data shorter than indices": (2, lambda a: a[:-1]),
    "deg missing a row": (3, lambda a: a[:-1]),
    "deg one-dimensional": (3, lambda a: a[:, 0]),
    "comm as float": (4, lambda a: a.astype(np.float64)),
    "indices as float": (1, lambda a: a.astype(np.float64)),
}


@requires_c
@pytest.mark.parametrize("case", sorted(BAD_AGGREGATE_ARGUMENTS))
def test_c_aggregate_rejects_bad_arguments(case):
    position, spoil = BAD_AGGREGATE_ARGUMENTS[case]
    rng = np.random.default_rng(4)
    args = aggregate_args(rng, n_views=2)
    while len(args[1]) == 0:
        args = aggregate_args(rng, n_views=2)
    args[position] = spoil(args[position])
    with pytest.raises(ValueError):
        aggregate(*args)


def restart_args():
    """The maximize inputs of a planted instance, and the state rows of two
    restarts, as a list: indptr, indices, data, deg0, alpha, states."""
    graphs, _ = planted_partition_views(30, 3, 0.4, 0.05, 2)
    m2 = np.array([2.0 * g.total_edge_weight() for g in graphs])
    adj = combined_csr([g.adjacency() for g in graphs], 1.0 / m2, 30)
    deg = np.stack([g.degrees() for g in graphs], axis=1)
    return [adj.indptr.astype(np.int64), adj.indices.astype(np.int64), adj.data, deg,
            1.0 / m2**2, _kernels.seeded_states(0, range(2))]


BAD_RESTART_ARGUMENTS = {
    "indptr too short": (0, lambda a: a[:-1]),
    "indptr past the entries": (0, lambda a: a + 100),
    "negative neighbour index": (1, first_negative),
    "neighbour index out of range": (1, lambda a: a + 100),
    "indices as float": (1, lambda a: a.astype(np.float64)),
    "data shorter than indices": (2, lambda a: a[:-1]),
    "deg missing a row": (3, lambda a: a[:-1]),
    "deg one-dimensional": (3, lambda a: a[:, 0]),
    "alpha with an entry too many": (4, lambda a: np.append(a, 1.0)),
    "a legacy RandomState": (5, lambda a: np.random.RandomState(0)),
    "states as int64": (5, lambda a: a.astype(np.int64)),
    "states read-only": (5, read_only),
    "states with a slot missing": (5, lambda a: a[:, 1:].copy()),
}


@requires_c
@pytest.mark.parametrize("case", sorted(BAD_RESTART_ARGUMENTS))
def test_c_restart_rejects_bad_arguments(case):
    position, spoil = BAD_RESTART_ARGUMENTS[case]
    args = restart_args()
    args[position] = spoil(args[position])
    indptr, indices, data, deg, alpha, states = args
    with pytest.raises(ValueError):
        _kernels.run_seeded((indptr, indices, data), deg, alpha, states, 1e-9)


def test_threads_share_the_kernel_safely():
    rng = np.random.default_rng(21)
    graphs = [[random_graph(rng, 30, 0.2)] for _ in range(8)]
    serial = [maximize(g, seed=3).labels for g in graphs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(lambda g: maximize(g, seed=3).labels, graphs, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for a, b in zip(serial, threaded):
        assert np.array_equal(a, b)
