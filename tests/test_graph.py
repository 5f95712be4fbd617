import numpy as np
import pytest

from mvmc import Clustering, GraphUsageError, ViewGraph

TRIANGLE = [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)]


def test_degree_triangle():
    g = ViewGraph.from_edges(3, TRIANGLE)
    assert g.degrees().tolist() == [2.0, 2.0, 2.0]


def test_degree_isolate():
    g = ViewGraph.from_edges(4, TRIANGLE)
    assert g.degrees()[3] == 0.0


def test_degree_weighted_path():
    g = ViewGraph.from_edges(3, [(0, 1, 0.5), (1, 2, 1.5)])
    assert g.degrees()[1] == 2.0


def test_total_edge_weight():
    assert ViewGraph.from_edges(3, TRIANGLE).total_edge_weight() == 3.0
    assert ViewGraph.from_edges(5, []).total_edge_weight() == 0.0
    assert ViewGraph.from_edges(3, [(0, 1, 0.5), (1, 2, 1.5)]).total_edge_weight() == 2.0


def test_connected_components():
    g = ViewGraph.from_edges(4, TRIANGLE)
    assert g.connected_components() == [{0, 1, 2}, {3}]
    assert ViewGraph.from_edges(3, []).connected_components() == [{0}, {1}, {2}]
    g2 = ViewGraph.from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)])
    assert g2.connected_components() == [{0, 1}, {2, 3}]


def test_rejects_self_loops_and_duplicates():
    with pytest.raises(GraphUsageError):
        ViewGraph.from_edges(3, [(1, 1, 1.0)])
    with pytest.raises(GraphUsageError):
        ViewGraph.from_edges(3, [(0, 1, 1.0), (1, 0, 2.0)])
    with pytest.raises(GraphUsageError):
        ViewGraph.from_edges(3, [(0, 5, 1.0)])
    with pytest.raises(GraphUsageError):
        ViewGraph.from_edges(3, [(0, 1, float("nan"))])


def test_canonical_storage_is_permutation_invariant():
    rng = np.random.default_rng(0)
    edges = [(i, j, float(rng.uniform(0.1, 2))) for i in range(8) for j in range(i + 1, 8) if rng.random() < 0.5]
    g1 = ViewGraph.from_edges(8, edges)
    perm = list(edges)
    rng.shuffle(perm)
    g2 = ViewGraph.from_edges(8, [(j, i, w) for i, j, w in perm])
    assert np.array_equal(g1.edge_u, g2.edge_u)
    assert np.array_equal(g1.edge_v, g2.edge_v)
    assert np.array_equal(g1.edge_w, g2.edge_w)


def test_degree_sum_equals_twice_total_weight():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = int(rng.integers(2, 30))
        edges = [
            (i, j, float(rng.uniform(0.01, 3)))
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.3
        ]
        g = ViewGraph.from_edges(n, edges)
        assert g.degrees().sum() == pytest.approx(2 * g.total_edge_weight(), rel=1e-9)
        comps = g.connected_components()
        nodes = set().union(*comps)
        assert nodes == set(range(n))
        assert sum(len(c) for c in comps) == n


def test_edge_list_roundtrip(tmp_path):
    g = ViewGraph.from_edges(4, [(0, 1, 0.25), (2, 3, 1.75)])
    path = tmp_path / "g.edges"
    g.write_edge_list(path)
    back = ViewGraph.read_edge_list(path)
    assert back.n == 4
    assert np.array_equal(back.edge_w, g.edge_w)


def test_clustering_requires_dense_labels():
    Clustering(np.array([0, 1, 0, 2]))
    with pytest.raises(GraphUsageError):
        Clustering(np.array([0, 2]))
    with pytest.raises(GraphUsageError):
        Clustering(np.array([1, 2]))
