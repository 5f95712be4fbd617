import hashlib
import os
import stat
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from mvmc import (
    Clustering,
    GraphUsageError,
    ViewGraph,
    _kernels,
    maximize,
    modularity,
    rb_modularity,
)
from mvmc._kernels import _move_pass, move_pass
from mvmc.synth import planted_partition_views

from oracles import dense_q, exhaustive_best_q, is_local_optimum

TWO_TRIANGLES = ViewGraph.from_edges(
    6, [(0, 1, 1), (1, 2, 1), (0, 2, 1), (3, 4, 1), (4, 5, 1), (3, 5, 1)]
)
SPLIT = Clustering(np.array([0, 0, 0, 1, 1, 1]))


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
        from mvmc.graph import densify_labels

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


requires_c = pytest.mark.skipif(
    _kernels.BACKEND != "c", reason="the compiled kernel did not load (no C compiler?)"
)


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


@requires_c
def test_maximize_labels_identical_under_both_backends(monkeypatch):
    graphs, _ = planted_partition_views(48, 3, 0.3, 0.06, 2, 1, 5)
    for seed, weights, resolutions in [
        (0, None, None),
        (1, [1.0, 0.6, 0.1], [1.0, 1.4, 0.7]),
        (2, None, [2.0, 2.0, 2.0]),
    ]:
        compiled = maximize(graphs, weights, resolutions, seed=seed).labels
        monkeypatch.setattr(modularity, "move_pass", _kernels._move_pass)
        reference = maximize(graphs, weights, resolutions, seed=seed).labels
        monkeypatch.undo()
        assert np.array_equal(compiled, reference)


def test_without_compiler_falls_back_to_python(tmp_path):
    (tmp_path / "bin").mkdir()
    env = {**os.environ, "PATH": str(tmp_path / "bin"), "XDG_CACHE_HOME": str(tmp_path)}
    env.pop("MVMC_KERNEL", None)
    code = (
        "from mvmc import _kernels, maximize;"
        "from mvmc.synth import planted_partition_views;"
        "g, _ = planted_partition_views(48, 3, 0.3, 0.06, 2, 1, 5);"
        "print(_kernels.BACKEND, *maximize(g, seed=1).labels)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert out[0] == "python"
    graphs, _ = planted_partition_views(48, 3, 0.3, 0.06, 2, 1, 5)
    assert [int(x) for x in out[1:]] == maximize(graphs, seed=1).labels.tolist()


@requires_c
def test_build_is_cached_under_a_private_directory(tmp_path):
    env = {**os.environ, "XDG_CACHE_HOME": str(tmp_path)}
    env.pop("MVMC_KERNEL", None)
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


def test_env_flag_selects_fallback():
    code = (
        "import os; os.environ['MVMC_KERNEL']='python';"
        "from mvmc import _kernels;"
        "assert _kernels.move_pass is _kernels._move_pass;"
        "assert _kernels.BACKEND == 'python';"
        "import numpy as np; from mvmc import ViewGraph, maximize;"
        "g = ViewGraph.from_edges(6, [(0,1,1),(1,2,1),(0,2,1),(3,4,1),(4,5,1),(3,5,1)]);"
        "p = maximize([g], seed=0);"
        "assert p.n_clusters == 2"
    )
    subprocess.run([sys.executable, "-c", code], check=True)
