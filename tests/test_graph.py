import re

import numpy as np
import pytest

from mvmc import Clustering, GraphUsageError, ViewGraph
from mvmc.graph import densify_labels, read_rows, write_rows
from mvmc.synth import planted_partition_graph, planted_partition_views

from oracles import (
    brute_components,
    brute_planted_partition_edges,
    brute_planted_partition_views,
    brute_view_graph,
)

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
    assert ViewGraph.from_edges(0, []).connected_components() == []
    g3 = ViewGraph.from_edges(5, [(0, 4, 1.0), (1, 3, 1.0)])
    components = g3.connected_components()
    assert components == [{0, 4}, {1, 3}, {2}]
    assert all(type(node) is int for group in components for node in group)


def test_connected_components_match_the_union_find_oracle():
    rng = np.random.default_rng(5)
    for trial in range(300):
        n = int(rng.integers(0, 40))
        ends = rng.integers(0, max(n, 1), (int(rng.integers(0, n + 1)), 2)).tolist()
        pairs = sorted({(min(i, j), max(i, j)) for i, j in ends if i != j})
        edges = [(i, j, 1.0) for i, j in pairs]
        g = ViewGraph.from_edges(n, edges)
        assert g.connected_components() == brute_components(n, edges), trial


def test_densify_labels_numbers_labels_in_first_appearance_order():
    assert densify_labels([7, 3, 7, 9, 3]).tolist() == [0, 1, 0, 2, 1]
    assert densify_labels(np.array([5, 5, -1])).tolist() == [0, 0, 1]
    assert densify_labels(["b", "a", "b", "c"]).tolist() == [0, 1, 0, 2]
    empty = densify_labels([])
    assert empty.dtype == np.int64 and empty.shape == (0,)
    # two calls sharing one index: known labels keep their codes
    index = {}
    assert densify_labels(["b", "a", "b"], index).tolist() == [0, 1, 0]
    assert densify_labels(["c", "a", "c"], index).tolist() == [2, 1, 2]
    assert index == {"b": 0, "a": 1, "c": 2}


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


@pytest.mark.parametrize("text, line", [
    ("#nodes=3\n0\t1\n", 2),
    ("#nodes=3\n0\tx\t1.0\n", 2),
    ("#nodes=x", 1),
    ("nodes=3\n", 1),
    ("", 1),
])
def test_malformed_edge_list_names_its_line(tmp_path, text, line):
    path = tmp_path / "g.edges"
    path.write_text(text)
    with pytest.raises(GraphUsageError, match=f"^{re.escape(str(path))}:{line}: "):
        ViewGraph.read_edge_list(path)


def test_read_rows_names_a_file_it_cannot_open(tmp_path):
    for path, reason in ((tmp_path / "missing.tsv", "No such file or directory"),
                         (tmp_path, "Is a directory")):
        with pytest.raises(GraphUsageError) as info:
            list(read_rows(path, 2, "a<TAB>b"))
        assert str(info.value) == f"{path}: {reason}"


def test_read_rows_names_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_bytes(b"a\t1\n" * 5000 + b"b\xff\t2\n" + b"c\t3\n")
    seen = []
    with pytest.raises(GraphUsageError) as info:
        for lineno, _fields in read_rows(path, 2, "a<TAB>b"):
            seen.append(lineno)
    assert str(info.value) == f"{path}: not valid UTF-8 (invalid start byte)"
    assert len(seen) < 5000


def test_read_rows_hands_back_the_header_line_unsplit(tmp_path):
    path = tmp_path / "t.tsv"
    write_rows(path, [("a", 1), ("b", 2)], "#x\ty\tz")
    assert list(read_rows(path, 2, "name<TAB>n", header=True)) == [
        (1, "#x\ty\tz"), (2, ["a", "1"]), (3, ["b", "2"])
    ]
    with pytest.raises(GraphUsageError, match=":1: expected name<TAB>n, got 3 field"):
        list(read_rows(path, 2, "name<TAB>n"))
    path.write_text("\n\na\t1\n")
    assert list(read_rows(path, 2, "name<TAB>n", header=True)) == [(1, ""), (3, ["a", "1"])]
    path.write_text("")
    assert list(read_rows(path, 2, "name<TAB>n", header=True)) == [(1, "")]


def test_clustering_requires_dense_labels():
    for labels in ([0, 1, 0, 2], [], [0, 0, 1]):
        Clustering(np.array(labels))
    for labels in ([0, 2], [1, 2], [1, 1], [-1, 0]):
        with pytest.raises(GraphUsageError):
            Clustering(np.array(labels))


def random_edge_list(rng) -> tuple[int, list]:
    """A node count and an edge list over distinct random pairs, each edge
    possibly reversed or replaced by one of the faults `from_arrays` handles."""
    n = int(rng.integers(0, 9))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    rng.shuffle(pairs)
    edges = []
    for i, j in pairs[: int(rng.integers(0, len(pairs) + 1))]:
        if rng.random() < 0.5:
            i, j = j, i
        w = float(rng.uniform(0.1, 2.0))
        roll = rng.random()
        if roll < 0.10 and edges:
            # an earlier pair again, reversed or as it was
            i, j = edges[int(rng.integers(len(edges)))][:2]
            if roll < 0.05:
                i, j = j, i
        elif roll < 0.13:
            w = 0.0
        elif roll < 0.16:
            w = float(rng.choice([1e-13, 9.99e-13, 1e-12, -0.0]))
        elif roll < 0.17:
            w = float("nan")
        elif roll < 0.18:
            w = float(rng.choice([np.inf, -np.inf]))
        elif roll < 0.19:
            w = -w
        elif roll < 0.20:
            j = i
        elif roll < 0.21:
            j = n + int(rng.integers(3))
        elif roll < 0.22:
            i = -1 - int(rng.integers(3))
        edges.append((i, j, w))
    return n, edges


def outcome(build):
    try:
        g = build()
    except GraphUsageError as exc:
        return str(exc)
    return arrays_outcome(g.edge_u, g.edge_v, g.edge_w)


def arrays_outcome(u, v, w):
    return u.tolist(), v.tolist(), w.tolist(), (u.dtype, v.dtype, w.dtype)


def oracle_outcome(n, edges):
    try:
        u, v, w = brute_view_graph(n, edges)
    except ValueError as exc:
        return str(exc)
    return arrays_outcome(u, v, w)


def edge_columns(edges):
    return (np.array([e[0] for e in edges], dtype=np.int64),
            np.array([e[1] for e in edges], dtype=np.int64),
            np.array([e[2] for e in edges], dtype=np.float64))


def test_construction_matches_the_per_edge_oracle():
    rng = np.random.default_rng(2024)
    seen = {"built": 0, "multi_bad": 0}
    for _ in range(3000):
        n, edges = random_edge_list(rng)
        expected = oracle_outcome(n, edges)
        assert outcome(lambda: ViewGraph.from_edges(n, edges)) == expected, (n, edges)
        assert outcome(lambda: ViewGraph.from_arrays(n, *edge_columns(edges))) == expected
        if isinstance(expected, str):
            seen[expected.split(" ")[0]] = seen.get(expected.split(" ")[0], 0) + 1
        else:
            seen["built"] += 1
        bad = [e for e in edges if not (0 <= e[0] < n and 0 <= e[1] < n)
               or e[0] == e[1] or not np.isfinite(e[2]) or e[2] < 0]
        seen["multi_bad"] += len(bad) >= 2
    # every fault is hit, as first fault, many times
    assert set(seen) == {"built", "multi_bad", "edge", "self-loop", "bad", "duplicate"}
    assert min(seen.values()) >= 50, seen


def test_construction_edge_cases_match_the_oracle():
    cases = [
        (0, []),
        (3, []),
        (-1, []),
        (0, [(0, 0, 1.0)]),
        (3, [(2, 1, 0.5), (1, 2, 1e-13)]),  # the reversed pair falls under the floor
        (3, [(2, 1, 0.5), (1, 2, 0.0)]),
        (3, [(2, 1, 0.5), (1, 2, 0.25)]),
        (4, [(0, 1, 1.0), (2, 2, float("nan")), (1, 9, -1.0)]),
        (4, [(0, 1, float("-inf")), (5, 1, 1.0)]),
        (4, [(-2, 1, 1.0), (3, 3, 1.0)]),
    ]
    for n, edges in cases:
        expected = oracle_outcome(n, edges)
        assert outcome(lambda: ViewGraph.from_edges(n, edges)) == expected, (n, edges)
        assert outcome(lambda: ViewGraph.from_arrays(n, *edge_columns(edges))) == expected
    with pytest.raises(GraphUsageError, match="edge arrays must be 1-D and of one length"):
        ViewGraph.from_arrays(3, [0], [1, 2], [1.0, 1.0])


@pytest.mark.parametrize("n, blocks, p_in, p_out, noise, seed", [
    (1, 1, 0.5, 0.0, 1, 0),
    (2, 2, 1.0, 0.0, 0, 1),
    (17, 3, 0.4, 0.1, 2, 2),
    (48, 4, 0.25, 0.05, 1, 3),
    (60, 1, 0.9, 0.3, 0, 4),
])
def test_sampler_matches_the_double_loop_oracle(monkeypatch, n, blocks, p_in, p_out,
                                                noise, seed):
    made = []
    default_rng = np.random.default_rng

    def recording_rng(s):
        made.append(default_rng(s))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", recording_rng)
    graphs, labels = planted_partition_views(n, blocks, p_in, p_out, 2, noise, seed)
    monkeypatch.undo()
    rng = np.random.default_rng(seed)
    expected = brute_planted_partition_views(n, blocks, p_in, p_out, 2, noise, rng)
    assert [list(zip(g.edge_u.tolist(), g.edge_v.tolist())) for g in graphs] == expected
    assert all(g.n == n and np.all(g.edge_w == 1.0) for g in graphs)
    assert made[0].bit_generator.state == rng.bit_generator.state


def test_planted_partition_graph_leaves_the_generator_as_the_oracle_does():
    labels = np.array([0, 1, 1, 0, 2, 2, 1, 0, 0, 2])
    rng, ref = np.random.default_rng(9), np.random.default_rng(9)
    for p_in, p_out in [(0.6, 0.2), (1.0, 0.0), (0.3, 0.3)]:
        g = planted_partition_graph(labels, p_in, p_out, rng)
        assert list(zip(g.edge_u.tolist(), g.edge_v.tolist())) == \
            brute_planted_partition_edges(labels, p_in, p_out, ref)
        assert rng.bit_generator.state == ref.bit_generator.state
