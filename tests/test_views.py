import numpy as np
import pytest
from scipy import sparse

from mvmc import GraphUsageError, ViewMatrix, auto_k, cosine_similarity, knn_graph, tfidf

from oracles import brute_cosine, brute_knn_edges, brute_tfidf


def vm(dense):
    dense = np.asarray(dense, dtype=float)
    names_r = tuple(f"r{i}" for i in range(dense.shape[0]))
    names_c = tuple(f"c{j}" for j in range(dense.shape[1]))
    return ViewMatrix(sparse.csr_matrix(dense), names_r, names_c)


def test_tfidf_term_in_every_document():
    out = tfidf(vm([[1], [1]]))
    assert out.counts.toarray().tolist() == [[1.0], [1.0]]


def test_tfidf_unique_terms():
    out = tfidf(vm([[2, 0], [0, 3]]))
    assert out.counts.toarray().tolist() == [[4.0, 0.0], [0.0, 6.0]]


def test_tfidf_zero_column_unchanged():
    out = tfidf(vm([[1, 0], [2, 0]]))
    assert out.counts.toarray()[:, 1].tolist() == [0.0, 0.0]


def test_tfidf_preserves_sparsity_pattern():
    rng = np.random.default_rng(2)
    dense = rng.integers(0, 3, size=(10, 6)).astype(float)
    out = tfidf(vm(dense))
    assert ((out.counts.toarray() != 0) == (dense != 0)).all()
    np.testing.assert_allclose(out.counts.toarray(), brute_tfidf(dense), rtol=1e-12)


def test_cosine_examples():
    m = vm([[1, 1, 0], [0, 1, 1], [1, 0, 0], [0, 0, 0]])
    assert cosine_similarity(m, 0, 1) == pytest.approx(0.5)
    assert cosine_similarity(m, 1, 2) == 0.0
    assert cosine_similarity(m, 0, 0) == pytest.approx(1.0)
    assert cosine_similarity(m, 0, 3) == 0.0  # all-zero row


def test_cosine_exactly_symmetric():
    rng = np.random.default_rng(3)
    m = vm(rng.uniform(0, 2, size=(8, 5)) * (rng.random((8, 5)) < 0.6))
    for i in range(8):
        for j in range(8):
            assert cosine_similarity(m, i, j) == cosine_similarity(m, j, i)


def test_knn_two_identical_rows():
    g = knn_graph(vm([[1, 2], [1, 2]]), k=1)
    assert g.edge_count == 1
    assert g.edge_w[0] == pytest.approx(1.0)


def test_knn_two_orthogonal_pairs():
    g = knn_graph(vm([[1, 0], [1, 0], [0, 1], [0, 1]]), k=1)
    assert g.edge_count == 2
    assert set(map(tuple, np.c_[g.edge_u, g.edge_v])) == {(0, 1), (2, 3)}
    np.testing.assert_allclose(g.edge_w, 1.0)


def test_knn_one_directional_edge_halved():
    # row 2's nearest neighbor is 0, but 0 prefers its near-twin 1
    dense = [[1.0, 0.0, 0.0], [1.0, 0.01, 0.0], [1.0, 0.0, 0.9]]
    g = knn_graph(vm(dense), k=1)
    edges = {(u, v): w for u, v, w in zip(g.edge_u, g.edge_v, g.edge_w)}
    sim02 = brute_cosine(np.array(dense), 0, 2)
    assert edges[(0, 2)] == pytest.approx(0.5 * sim02)


def test_knn_zero_rows_become_isolates():
    g = knn_graph(vm([[1, 0], [1, 0], [0, 0]]), k=1)
    assert g.degrees()[2] == 0.0


def test_knn_k_validation():
    m = vm([[1], [1], [1]])
    with pytest.raises(GraphUsageError):
        knn_graph(m, k=0)
    with pytest.raises(GraphUsageError):
        knn_graph(m, k=3)


def test_auto_k():
    assert auto_k(2) == 1
    assert auto_k(9) == 3
    assert auto_k(10) == 3
    assert auto_k(100) == 10


def test_knn_matches_bruteforce_oracle():
    rng = np.random.default_rng(4)
    for trial in range(10):
        n = int(rng.integers(4, 30))
        f = int(rng.integers(2, 8))
        dense = rng.uniform(0, 1, size=(n, f)) * (rng.random((n, f)) < 0.5)
        k = int(rng.integers(1, n - 1))
        g = knn_graph(vm(dense), k=k)
        expected = brute_knn_edges(dense, k)
        got = {(int(u), int(v)): w for u, v, w in zip(g.edge_u, g.edge_v, g.edge_w)}
        # Float summation order can flip the ranking of near-equal similarities,
        # so disputed edges are allowed only when they sit at an ulp-level tie
        # with the row's k-th best neighbour.
        sims = np.array(
            [[brute_cosine(dense, i, j) for j in range(n)] for i in range(n)]
        )
        np.fill_diagonal(sims, -np.inf)
        kth = -np.sort(-sims, axis=1)[:, k - 1]
        for i, j in set(got) ^ set(expected):
            assert min(
                abs(sims[i, j] - kth[i]), abs(sims[i, j] - kth[j])
            ) < 1e-9, f"edge ({i},{j}) is not a near-tie"
        for key in expected:
            if key in got:
                assert got[key] == pytest.approx(expected[key], rel=1e-9)


def test_triplet_roundtrip(tmp_path):
    m = vm([[1, 0, 2], [0, 3, 0]])
    path = tmp_path / "m.triplets"
    m.write_triplets(path)
    back = ViewMatrix.read_triplets(path, row_names=m.row_names)
    # column registry is rebuilt in first-appearance order, so align by name
    orig, new = m.counts.toarray(), back.counts.toarray()
    for j, name in enumerate(back.col_names):
        np.testing.assert_array_equal(new[:, j], orig[:, m.col_names.index(name)])
    assert sorted(back.col_names) == sorted(
        name for j, name in enumerate(m.col_names) if orig[:, j].any()
    )


def test_tfidf_cosine_invariant_to_uniform_row_scaling():
    rng = np.random.default_rng(5)
    dense = rng.uniform(0, 2, size=(6, 4)) * (rng.random((6, 4)) < 0.7)
    scaled = dense * 3.0  # uniform scaling of all counts
    a, b = tfidf(vm(dense)), tfidf(vm(scaled))
    for i in range(6):
        for j in range(6):
            assert cosine_similarity(a, i, j) == pytest.approx(
                cosine_similarity(b, i, j), abs=1e-12
            )
