"""Weighted, resolution-parameterized multi-view modularity and its maximizer.

The quality function is the normalized Reichardt-Bornholdt modularity summed
over views with per-view weights w_v and resolutions gamma_v:

    Q = sum_v w_v / (2 m_v) * sum_ij [A^v_ij - gamma_v d_i d_j / (2 m_v)]
        * delta(c_i, c_j)

with the pair sum running over ordered pairs (each undirected edge twice)
and including the diagonal null-model terms. Views with no edges contribute
nothing. The maximizer is Louvain-style: sweeps of greedy single-node moves
whose gains are aggregated across all views, followed by graph aggregation,
repeated until no gain remains. All the restarts of a call run in one call of
the compiled routine `_kernels.run_restarts`, which steps its own PCG64 from
the numpy-seeded state of each restart's `default_rng([seed, r])`; without it,
`_restarts` drives each restart from Python through `_maximize_once`, calling
the sweep (`move_pass`) and the aggregation of a level (`aggregate`), the
compiled kernels of `_kernels` or their Python references there.
`_maximize_once` is the reference of the compiled restart.

The restarts share one combined graph, the views' adjacencies scaled by
w_v/(2 m_v) and summed, which `_kernels.combined_graph` builds from the views'
edge arrays, in C or with numpy alone, so the clusterer needs no scipy.sparse.
"""
from __future__ import annotations

import numbers

import numpy as np

from . import _kernels
from ._kernels import MAX_LEVELS, aggregate, combined_graph, move_pass
from ._kernels import run_restarts as _compiled_restarts
from .graph import Clustering, GraphUsageError, ViewGraph

GAIN_EPSILON = 1e-9


def _check_views(graphs: list[ViewGraph]) -> int:
    if not graphs:
        raise GraphUsageError("need at least one view graph")
    n = graphs[0].n
    if any(g.n != n for g in graphs):
        raise GraphUsageError("all view graphs must share the node count")
    return n


def _as_params(graphs, weights, resolutions):
    m = len(graphs)
    w = np.full(m, 1.0) if weights is None else np.asarray(weights, dtype=np.float64)
    g = (
        np.full(m, 1.0)
        if resolutions is None
        else np.asarray(resolutions, dtype=np.float64)
    )
    if len(w) != m or len(g) != m:
        raise GraphUsageError("parameter arrays must have one entry per view")
    if not (np.isfinite(w).all() and np.isfinite(g).all()):
        raise GraphUsageError("weights and resolutions must be finite")
    if np.any(g <= 0):
        raise GraphUsageError("resolutions must be positive")
    return w, g


def rb_modularity(
    graphs: list[ViewGraph],
    clustering: Clustering,
    weights=None,
    resolutions=None,
) -> float:
    """Multi-view RB modularity of a shared partition."""
    n = _check_views(graphs)
    labels = clustering.labels
    if len(labels) != n:
        raise GraphUsageError("clustering does not cover the node set")
    w, gamma = _as_params(graphs, weights, resolutions)
    m2 = [2.0 * g.total_edge_weight() for g in graphs]
    return _rb_sum(graphs, labels, w, gamma, m2, [g.degrees() for g in graphs])


def _view_sums(graph: ViewGraph, labels: np.ndarray, deg: np.ndarray) -> tuple[float, float]:
    """The intra-cluster edge weight of one view (each edge once) and the sum
    over clusters of the squared degree sums, given the view's degrees."""
    same = labels[graph.edge_u] == labels[graph.edge_v]
    tot = np.bincount(labels, weights=deg)
    return float(graph.edge_w[same].sum()), float((tot * tot).sum())


def _rb_sum(graphs, labels, w, gamma, m2, deg):
    """`rb_modularity` given each view's doubled edge weight m2[v] and
    degrees deg[v], which do not depend on the partition."""
    total = 0.0
    for v, g in enumerate(graphs):
        if m2[v] == 0.0:
            continue
        intra, null = _view_sums(g, labels, deg[v])
        total += w[v] / m2[v] * (2.0 * intra - gamma[v] * null / m2[v])
    return float(total)


def _view_edges(graphs):
    """The offset where each view's edges start, then their total, and the
    views' edge_u, edge_v and edge_w laid end to end."""
    offsets = np.cumsum([0] + [g.edge_count for g in graphs])
    return (offsets, *(np.concatenate([getattr(g, name) for g in graphs])
                       for name in ("edge_u", "edge_v", "edge_w")))


def _sweep_to_fixpoint(graph, deg, alpha, comm, rng, gain_epsilon, counts):
    """Repeat local-move sweeps on one graph until no node wants to move.

    `graph` is the CSR adjacency as int64 indptr and indices and float64
    data. `comm` is updated in place and may start from any partition;
    community ids must lie below the node count. Adds the sweeps and moves
    made to counts[0] and counts[1]. Returns True if any move happened.
    """
    indptr, indices, data = graph
    size = len(indptr) - 1
    nviews = deg.shape[1]
    comm_tot = np.zeros((size, nviews), dtype=np.float64)
    np.add.at(comm_tot, comm, deg)
    comm_size = np.bincount(comm, minlength=size).astype(np.int64)
    empty_stack = np.empty(size, dtype=np.int64)
    unused = np.flatnonzero(comm_size == 0)
    n_empty = len(unused)
    empty_stack[:n_empty] = unused
    moved_any = False
    while True:
        order = rng.permutation(size)
        gain, n_moves, n_empty = move_pass(
            indptr,
            indices,
            data,
            deg,
            alpha,
            comm,
            comm_tot,
            comm_size,
            empty_stack,
            n_empty,
            order,
            gain_epsilon,
        )
        counts[0] += 1
        counts[1] += n_moves
        if n_moves == 0 or gain <= gain_epsilon:
            break
        moved_any = True
    return moved_any


DEFAULT_RESTARTS = 16


def maximize(
    graphs: list[ViewGraph],
    weights=None,
    resolutions=None,
    seed: int = 0,
    restarts: int = DEFAULT_RESTARTS,
) -> Clustering:
    """Best of `restarts` Louvain-style runs, deterministic per seed.

    Each run alternates multi-level aggregation with a refinement phase that
    replays local moves on the original graph, so the returned partition is
    stable against every single-node move (including splitting off a
    singleton). Restarts differ only in sweep order; the highest-modularity
    partition wins, earliest run on ties. The result's meta holds the weights,
    resolutions and seed used, the winning partition's `modularity`, the
    sweeps, moves and levels summed over the restarts, and the winning restart.
    """
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise GraphUsageError("seed must be an integer >= 0")
    if not isinstance(restarts, numbers.Integral):
        raise GraphUsageError("restarts must be an integer")
    if restarts < 1:
        raise GraphUsageError("restarts must be positive")
    n = _check_views(graphs)
    w, gamma = _as_params(graphs, weights, resolutions)
    # the combined graph, its degrees and the null-model terms are the same
    # for every restart
    m2 = np.array([2.0 * g.total_edge_weight() for g in graphs])
    edge_coeff = np.where(m2 > 0.0, w / np.where(m2 > 0.0, m2, 1.0), 0.0)
    alpha = np.where(m2 > 0.0, w * gamma / np.where(m2 > 0.0, m2 * m2, 1.0), 0.0)
    graph0 = combined_graph(n, *_view_edges(graphs), edge_coeff)
    deg0 = np.zeros((n, len(graphs)), dtype=np.float64)
    for v, g in enumerate(graphs):
        deg0[:, v] = g.degrees()
    # While a kernel binding here is wrapped (by a tracer or a profiler), the
    # first restart is driven from Python through the bindings, so the wrapper
    # still sees one restart's sweeps and levels per call.
    wrapped = move_pass is not _kernels.move_pass or aggregate is not _kernels.aggregate
    head = 1 if wrapped else 0
    runs = _restarts(graph0, deg0, alpha, seed, range(head), GAIN_EPSILON) + run_restarts(
        graph0, deg0, alpha, seed, range(head, restarts), GAIN_EPSILON
    )
    best = None
    best_q = -np.inf
    best_r = 0
    # restarts often return the same partition; a repeat scores what its first
    # copy scored, so it never wins by GAIN_EPSILON and is scored once
    scored = set()
    for r, (labels, _counts) in enumerate(runs):
        key = labels.tobytes()
        if key in scored:
            continue
        scored.add(key)
        q = _rb_sum(graphs, labels, w, gamma, m2, deg0.T)
        if q > best_q + GAIN_EPSILON:
            best, best_q, best_r = labels, q, r
    sweeps, moves, levels = map(sum, zip(*(counts for _labels, counts in runs)))
    meta = {
        "weights": w.tolist(),
        "resolutions": gamma.tolist(),
        "seed": seed,
        "modularity": best_q,
        "sweeps": sweeps,
        "moves": moves,
        "levels": levels,
        "best_restart": best_r,
    }
    # copied: the compiled restarts' labels are rows of one array
    return Clustering(best.copy(), meta=meta)


def _restarts(graph0, deg0, alpha, seed, restarts, gain_epsilon):
    """(labels, (sweeps, moves, levels)) of one `_maximize_once` on the
    generator `default_rng([seed, r])` for each r in the range `restarts`."""
    return [_maximize_once(graph0, deg0, alpha, np.random.default_rng([seed, r]), gain_epsilon)
            for r in restarts]


# one compiled call for all restarts, or each restart driven from Python
run_restarts = _compiled_restarts or _restarts


def _maximize_once(graph0, deg0, alpha, rng, gain_epsilon):
    """One restart: its dense labels, and the sweeps, moves and levels
    (aggregations) it made."""
    n = len(deg0)
    counts = [0, 0, 0]
    if n == 0:
        return np.empty(0, dtype=np.int64), tuple(counts)

    assignment = np.arange(n, dtype=np.int64)  # original node -> community

    for _round in range(MAX_LEVELS):
        # refinement: single-node moves on the original graph, starting from
        # the current assignment (the identity partition on the first round)
        comm = assignment.copy()
        if not _sweep_to_fixpoint(graph0, deg0, alpha, comm, rng, gain_epsilon, counts):
            break
        # multi-level coarsening until moves dry up at every scale; each
        # aggregation also renumbers the communities it was given densely
        assignment, k, *graph, deg = aggregate(*graph0, deg0, comm)
        counts[2] += 1
        size = n
        for _level in range(MAX_LEVELS):
            if k == size:
                break
            size = k
            comm = np.arange(k, dtype=np.int64)
            if not _sweep_to_fixpoint(graph, deg, alpha, comm, rng, gain_epsilon, counts):
                break
            dense, k, *graph, deg = aggregate(*graph, deg, comm)
            counts[2] += 1
            assignment = dense[assignment]

    # dense in order of first appearance: each level's labels are, and
    # composing them keeps that order
    return assignment, tuple(counts)
