import json
import re

import numpy as np
import pytest
from scipy import sparse

from mvmc import GraphUsageError, ViewMatrix, auto_k, cosine_similarity, knn_graph, tfidf
from mvmc import _kernels
from mvmc.ingest import build_daily_views, group_by_day, parse_json_record
from mvmc.synth import synthetic_corpus
from mvmc.views import _unit_rows

from oracles import (
    brute_cosine,
    brute_from_codes,
    brute_knn_edges,
    brute_tfidf,
    brute_write_triplets,
)

requires_c = pytest.mark.skipif(
    _kernels.BACKEND != "c", reason="the compiled kernel did not load (no C compiler?)"
)


def vm(dense):
    dense = np.asarray(dense, dtype=float)
    names_r = tuple(f"r{i}" for i in range(dense.shape[0]))
    names_c = tuple(f"c{j}" for j in range(dense.shape[1]))
    return ViewMatrix.from_matrix(sparse.csr_matrix(dense), names_r, names_c)


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


def names(prefix, count):
    return tuple(f"{prefix}{i}" for i in range(count))


def test_view_matrix_copies_the_callers_matrix():
    counts = sparse.csr_matrix(
        (np.array([1.0, 0.0, 2.0]), np.array([0, 1, 0]), np.array([0, 2, 3])), shape=(2, 2)
    )
    view = ViewMatrix.from_matrix(counts, ("a", "b"), ("x", "y"))
    assert counts.nnz == 3  # the explicit zero is still the caller's
    assert view.counts.nnz == 2
    assert not np.shares_memory(view.counts.data, counts.data)


def test_from_codes_and_tfidf_build_what_the_public_constructor_would():
    # the arrays of from_codes and tfidf against from_matrix's canonicalisation of them
    posts = synthetic_corpus(seed=101)
    for day, day_posts in group_by_day(parse_json_record(json.dumps(p)) for p in posts).items():
        for view in build_daily_views(day_posts, day).as_list():
            for built in (view, tfidf(view), tfidf(view, mode="log")):
                again = ViewMatrix.from_matrix(built.counts, built.row_names, built.col_names)
                assert built.counts.shape == again.counts.shape
                for attr in ("data", "indices", "indptr"):
                    a, b = getattr(built.counts, attr), getattr(again.counts, attr)
                    assert a.dtype == b.dtype and np.array_equal(a, b), (day, attr)


def test_tfidf_counts_a_duplicated_entry_once():
    # dense [[2, 0], [0, 1]], with (0, 0) stored as two entries of 1
    counts = sparse.csr_matrix(
        (np.array([1.0, 1.0, 1.0]), np.array([0, 0, 1]), np.array([0, 2, 3])), shape=(2, 2)
    )
    out = tfidf(ViewMatrix.from_matrix(counts, ("a", "b"), ("x", "y")))
    assert out.counts.toarray().tolist() == [[4.0, 0.0], [0.0, 2.0]]


def test_from_codes_matches_scipy_construction():
    rng = np.random.default_rng(11)
    for trial in range(60):
        n, f = int(rng.integers(0, 30)), int(rng.integers(0, 40))
        pairs = int(rng.integers(0, 300)) if n and f else 0
        rows, cols = rng.integers(0, max(n, 1), pairs), rng.integers(0, max(f, 1), pairs)
        got = ViewMatrix.from_codes(rows.tolist(), cols.tolist(), names("r", n), names("c", f))
        want = brute_from_codes(rows, cols, (n, f))
        assert got.counts.shape == want.shape
        for attr in ("data", "indices", "indptr"):
            a, b = getattr(got.counts, attr), getattr(want, attr)
            assert a.dtype == b.dtype and np.array_equal(a, b), (trial, attr)


def test_from_codes_rejects_codes_out_of_range():
    with pytest.raises(GraphUsageError):
        ViewMatrix.from_codes([0, 2], [0, 0], ("a", "b"), ("x",))
    with pytest.raises(GraphUsageError):
        ViewMatrix.from_codes([0], [-1], ("a",), ("x",))


def canonical(**changes):
    """Constructor arguments for [[1, 0, 2], [0, 3, 0]], with `changes`."""
    return {"indptr": np.array([0, 2, 3]), "indices": np.array([0, 2, 1]),
            "data": np.array([1.0, 2.0, 3.0]), "row_names": ("a", "b"),
            "col_names": ("x", "y", "z"), **changes}


def test_constructor_takes_canonical_arrays_as_they_are():
    args = canonical()
    view = ViewMatrix(**args)
    assert view.counts.toarray().tolist() == [[1.0, 0.0, 2.0], [0.0, 3.0, 0.0]]
    assert view.data is args["data"] and not view.data.flags.writeable
    assert ViewMatrix(np.array([0, 0]), np.array([], int), np.array([]), ("a",), ()).n_rows == 1


@pytest.mark.parametrize("changes", [
    {"indices": np.array([2, 0, 1])},  # descending within row 0
    {"indices": np.array([0, 0, 1])},  # repeated within row 0
    {"indices": np.array([0, 3, 1])},  # past the last column
    {"indices": np.array([-1, 2, 1])},
    {"col_names": ("x", "y")},  # column 2 has no name
    {"data": np.array([1.0, 0.0, 3.0])},
    {"data": np.array([1.0, -2.0, 3.0])},
    {"data": np.array([1.0, np.nan, 3.0])},
    {"data": np.array([1.0, np.inf, 3.0])},
    {"data": np.array([1.0, 2.0])},
    {"row_names": ("a",)},
    {"row_names": ("a", "b", "c")},
    {"indptr": np.array([1, 2, 3])},
    {"indptr": np.array([0, 2, 2])},
    {"indptr": np.array([0, 4, 3])},
    {"indptr": np.array([0.0, 2.0, 3.0])},
    {"data": np.array([1, 2, 3])},
])
def test_constructor_rejects_arrays_that_are_not_canonical(changes):
    with pytest.raises(GraphUsageError):
        ViewMatrix(**canonical(**changes))


def test_from_matrix_matches_scipys_canonicalisation():
    rng = np.random.default_rng(14)
    for trial in range(60):
        n, f = int(rng.integers(0, 20)), int(rng.integers(0, 25))
        nnz = int(rng.integers(0, 200)) if n and f else 0
        rows, cols = rng.integers(0, max(n, 1), nnz), rng.integers(0, max(f, 1), nnz)
        # quarter units, some 0: a repeated entry sums exactly in any order
        vals = rng.integers(0, 8, nnz) / 4
        order = np.argsort(rows, kind="stable")  # CSR rows, columns unsorted
        indptr = np.searchsorted(rows[order], np.arange(n + 1))
        matrix = sparse.csr_matrix((vals[order], cols[order], indptr), shape=(n, f))
        if trial % 2:
            matrix = sparse.coo_matrix((vals, (rows, cols)), shape=(n, f))
        want = sparse.csr_matrix(matrix, dtype=np.float64, copy=True)
        want.sum_duplicates()
        want.eliminate_zeros()
        got = ViewMatrix.from_matrix(matrix, names("r", n), names("c", f))
        for attr in ("data", "indices", "indptr"):
            a, b = getattr(got, attr), getattr(want, attr)
            assert a.dtype == b.dtype and np.array_equal(a, b), (trial, attr)
            for theirs in (v for v in vars(matrix).values() if isinstance(v, np.ndarray)):
                assert not np.shares_memory(a, theirs), (trial, attr)


def test_from_matrix_rejects_a_shape_the_registries_do_not_match():
    with pytest.raises(GraphUsageError):
        ViewMatrix.from_matrix(sparse.csr_matrix(np.ones((2, 2))), ("a", "b"), ("x",))


def test_from_codes_sums_weighted_pairs_in_input_order():
    one = ViewMatrix.from_codes([0, 0, 0], [0, 0, 0], "a", "x", counts=[1e16, -1e16, 1.0])
    assert one.data.tolist() == [1.0]
    zero = ViewMatrix.from_codes([0, 0, 0], [0, 0, 0], "a", "x", counts=[1.0, 1e16, -1e16])
    assert zero.indptr.tolist() == [0, 0] and zero.data.tolist() == []
    for bad in (-1.0, np.nan, np.inf):
        with pytest.raises(GraphUsageError):
            ViewMatrix.from_codes([0, 1], [0, 0], "ab", "x", counts=[2.0, bad])


def test_read_triplets_sums_a_repeated_line(tmp_path):
    path = tmp_path / "m.triplets"
    path.write_text("a\tx\t1.5\nb\ty\t1.0\na\tx\t2.0\n")
    view = ViewMatrix.read_triplets(path)
    assert (view.row_names, view.col_names) == (("a", "b"), ("x", "y"))
    assert view.counts.toarray().tolist() == [[3.5, 0.0], [0.0, 1.0]]


def test_from_codes_and_tfidf_keep_int32_index_arrays():
    view = ViewMatrix.from_codes([0, 1, 2, 2], [0, 0, 1, 2], "abc", "xyz")
    for built in (view, tfidf(view), tfidf(view, mode="log")):
        assert built.indptr.dtype == built.indices.dtype == np.int32
        counts = built.counts  # wraps the view's arrays, no copy
        assert all(np.shares_memory(getattr(counts, a), getattr(built, a))
                   for a in ("data", "indices", "indptr"))


def test_write_triplets_matches_the_lexsort_writer(tmp_path):
    rng = np.random.default_rng(12)
    for trial in range(40):
        n, f = int(rng.integers(1, 25)), int(rng.integers(1, 30))
        dense = rng.integers(1, 5, size=(n, f)) * (rng.random((n, f)) < rng.uniform(0, 0.6))
        view = vm(dense)
        if trial % 2:  # non-integer counts
            view = tfidf(view, mode=("ratio", "log")[trial % 4 // 2])
        ours, theirs = tmp_path / "ours.triplets", tmp_path / "theirs.triplets"
        view.write_triplets(ours)
        brute_write_triplets(view, theirs)
        assert ours.read_bytes() == theirs.read_bytes(), trial
        back = ViewMatrix.read_triplets(ours, row_names=view.row_names,
                                        col_names=view.col_names)
        assert np.array_equal(back.counts.toarray(), view.counts.toarray())


def test_unit_rows_match_scipys_normalisation():
    # rows of 0-40 entries, some of 1e-170 whose squares underflow to 0
    rng = np.random.default_rng(13)
    dense = rng.uniform(0, 3, size=(200, 40)) * (rng.random((200, 40)) < rng.random((200, 1)))
    dense[rng.random(dense.shape) < 0.05] = 1e-170
    mat = sparse.csr_matrix(dense)
    norms = np.sqrt(np.asarray(mat.multiply(mat).sum(axis=1)).ravel())
    inv = np.zeros_like(norms)
    inv[norms > 0] = 1.0 / norms[norms > 0]
    want = (sparse.diags(inv) @ mat).toarray()
    got = sparse.csr_matrix((_unit_rows(mat), mat.indices, mat.indptr), shape=mat.shape)
    assert np.array_equal(got.toarray(), want)


def knn_cases():
    """Seeded cases for the compiled k-NN routine: (view, idf mode, k, the
    case kinds the view covers).

    Views have 2-3000 rows of 1-8 entries on average, with integer or
    uniform counts; some have duplicated rows (tied similarities), all-zero
    rows, all-zero columns or a column scaled by 1e-7 (similarities under
    WEIGHT_FLOOR), and one is a near-dense 1500 x 200 view at 20% density. k cycles through auto, 1, 7 and n - 1, which is used only up to
    300 rows, where the n * k picks stay small.
    """
    rng = np.random.default_rng(20)
    cases = []
    for trial in range(320):
        if trial == 0:
            n, f, per_row = 1500, 200, 40.0
        else:
            n = int(rng.integers(2, (60, 600, 3001)[trial % 16 // 7]))
            f = int(rng.integers(1, 300))
            per_row = rng.uniform(1, 8)
        present = rng.random((n, f)) < min(per_row / f, 1.0)
        if trial % 2:
            dense = (rng.integers(1, 5, size=(n, f)) * present).astype(float)
        else:
            dense = rng.uniform(0, 3, size=(n, f)) * present
        if trial % 5 == 1 and n > 2:
            dense[rng.integers(0, n, n // 3 + 1)] = dense[rng.integers(0, n)]
        if trial % 7 == 2:
            dense[rng.integers(0, n, n // 4 + 1)] = 0
        if trial % 3 == 0:
            dense[:, rng.integers(0, f, f // 5 + 1)] = 0
        if trial % 11 == 3:  # rows that share only this column are linked at ~1e-14
            dense[:, rng.integers(0, f)] *= 1e-7
        kind = ("auto", 1, 7, "n-1")[trial % 4]
        if kind == "n-1" and n > 300:
            kind = "auto"
        k = {"auto": auto_k(n), 1: 1, 7: min(7, n - 1), "n-1": n - 1}[kind]
        mode = ("ratio", "log")[trial // 4 % 2]
        nonzero_rows = np.unique(dense[dense.any(axis=1)], axis=0, return_counts=True)[1]
        tiny = False
        if n <= 600:
            weighted = tfidf(vm(dense), mode=mode).counts.toarray()
            norms = np.linalg.norm(weighted, axis=1)
            unit = weighted / np.where(norms > 0, norms, 1.0)[:, None]
            sims = unit @ unit.T
            np.fill_diagonal(sims, 0.0)
            tiny = ((sims > 0) & (sims <= 1e-12)).any()
        kinds = {f"k={kind}", f"idf={mode}"} | {name for name, hit in (
            ("near-dense", trial == 0),
            ("similarities at or under the floor", tiny),
            ("duplicate rows", (nonzero_rows > 1).any()),
            ("all-zero rows", (~dense.any(axis=1)).any()),
            ("all-zero columns", (~dense.any(axis=0)).any()),
            ("2 rows", n == 2),
            (">= 2000 rows", n >= 2000),
        ) if hit}
        cases.append((vm(dense), mode, k, kinds))
    return cases


@requires_c
def test_c_knn_edges_matches_python_reference():
    cases = knn_cases()
    for case, (view, mode, k, _kinds) in enumerate(cases):
        counts = tfidf(view, mode=mode).counts
        args = (counts.indptr, counts.indices, _unit_rows(counts), counts.shape[1], k)
        got, want = _kernels.knn_edges(*args), _kernels._knn_edges(*args)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b), (case, view.n_rows, k)
    assert len(cases) >= 300
    assert set().union(*(kinds for *_, kinds in cases)) == {
        "k=auto", "k=1", "k=7", "k=n-1", "idf=ratio", "idf=log", "near-dense",
        "duplicate rows", "all-zero rows", "all-zero columns", "2 rows", ">= 2000 rows",
        "similarities at or under the floor",
    }


def knn_args():
    """knn_edges inputs of a small view, as a list: indptr, indices, data,
    ncols, k."""
    rng = np.random.default_rng(21)
    dense = rng.integers(1, 4, size=(12, 6)) * (rng.random((12, 6)) < 0.5)
    counts = tfidf(vm(dense)).counts
    return [counts.indptr.astype(np.int64), counts.indices.astype(np.int64),
            _unit_rows(counts), 6, 3]


def decreasing(a):
    a = a.copy()
    a[1], a[2] = a[2] + 1, a[1]
    return a


def first_negative(a):
    a = a.copy()
    a[0] = -1
    return a


BAD_KNN_ARGUMENTS = {
    "indptr too short": (0, lambda a: a[:-1]),
    "indptr past the entries": (0, lambda a: a + 100),
    "indptr decreasing": (0, decreasing),
    "negative column index": (1, first_negative),
    "column index equal to ncols": (1, lambda a: np.full_like(a, 6)),
    "indices as float": (1, lambda a: a.astype(np.float64)),
    "data shorter than indices": (2, lambda a: a[:-1]),
    "negative ncols": (3, lambda a: -1),
    "k of zero": (4, lambda a: 0),
    "k equal to n": (4, lambda a: 12),
}


@requires_c
@pytest.mark.parametrize("case", sorted(BAD_KNN_ARGUMENTS))
def test_c_knn_edges_rejects_bad_arguments(case):
    position, spoil = BAD_KNN_ARGUMENTS[case]
    args = knn_args()
    args[position] = spoil(args[position])
    with pytest.raises(ValueError):
        _kernels.knn_edges(*args)


EXPONENT_VALUES = (1e-05, 1e+16, 5e-324, 1.7976931348623157e+308)


def triplet_cases():
    """Seeded views for the compiled triplet formatter: (view, the case
    kinds it covers).

    Views have 0-40 rows over 0-50 columns, at densities from 0 to 0.8.
    Names are ASCII, hold spaces, or hold accented letters, CJK and emoji.
    Values are small integer counts (so repeated), sums such as 0.1 + 0.2
    that repr with 17 digits, uniform draws, or draws among values whose repr
    uses exponent form: the smallest subnormal and the largest double.
    """
    rng = np.random.default_rng(27)
    alphabets = ("abcxyz#_019", "ab c #x y", "aé#ü😀中文 x ")
    cases = []
    for trial in range(520):
        n, f = int(rng.integers(0, 41)), int(rng.integers(0, 51))
        if trial == 0:
            n, f = 1, 1
        present = rng.random((n, f)) < rng.uniform(0, 0.8)
        if trial == 0:
            present[:] = True
        kind = trial % 4
        if kind == 0:
            values = rng.integers(1, 4, size=(n, f)).astype(float)
        elif kind == 1:
            values = rng.integers(1, 10, size=(n, f)) * 0.1 + 0.2
        elif kind == 2:
            values = rng.uniform(1e-3, 1e3, size=(n, f))
        else:
            values = rng.choice(EXPONENT_VALUES, size=(n, f))
        alphabet = alphabets[trial % 3]

        def names(count, prefix):
            return tuple(prefix + "".join(rng.choice(list(alphabet), int(rng.integers(0, 6))))
                         + str(i) for i in range(count))

        rows, cols = np.nonzero(present)
        view = ViewMatrix.from_codes(rows, cols, names(n, "r"), names(f, "c"),
                                     counts=values[rows, cols])
        kinds = {f"names={('ascii', 'spaces', 'non-ascii')[trial % 3]}"} | {name for name, hit in (
            ("no entries", len(view.data) == 0),
            ("single entry", len(view.data) == 1),
            ("empty rows", (np.diff(view.indptr) == 0).any()),
            ("repeated values", len(set(view.data.tolist())) < len(view.data)),
            ("0.1 + 0.2", 0.1 + 0.2 in view.data),
            *((repr(v), v in view.data) for v in EXPONENT_VALUES),
        ) if hit}
        cases.append((view, kinds))
    return cases


@requires_c
def test_c_triplet_bytes_match_the_python_reference():
    cases = triplet_cases()
    for case, (view, _kinds) in enumerate(cases):
        args = (view.indptr, view.indices, view.data, view.row_names, view.col_names)
        assert _kernels.triplet_bytes(*args) == _kernels._triplet_bytes(*args), case
    assert len(cases) >= 500
    assert set().union(*(kinds for _, kinds in cases)) == {
        "names=ascii", "names=spaces", "names=non-ascii", "no entries", "single entry",
        "empty rows", "repeated values", "0.1 + 0.2", "1e-05", "1e+16", "5e-324",
        "1.7976931348623157e+308",
    }


WRITERS = {"bound": lambda: _kernels.triplet_bytes, "reference": lambda: _kernels._triplet_bytes}


@pytest.mark.parametrize("writer", sorted(WRITERS))
@pytest.mark.parametrize("where", ["row", "col"])
@pytest.mark.parametrize("separator", ["\t", "\n", "\r"])
def test_write_triplets_rejects_a_name_that_would_split_its_line(
        tmp_path, monkeypatch, writer, where, separator):
    monkeypatch.setattr(_kernels, "triplet_bytes", WRITERS[writer]())
    bad = f"b{separator}d"
    names = {"row": ("a", bad, f"e{separator}"), "col": ("x", "y", "z")}
    if where == "col":
        names = {"row": ("a", "b", "e"), "col": ("x", bad, f"z{separator}")}
    view = ViewMatrix.from_codes([0, 1, 2], [0, 1, 2], names["row"], names["col"])
    with pytest.raises(GraphUsageError, match=re.escape(repr(bad))):
        view.write_triplets(tmp_path / "out" / "m.triplets")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_write_triplets_of_a_lone_surrogate_raises_and_leaves_no_file(
        tmp_path, monkeypatch, writer):
    monkeypatch.setattr(_kernels, "triplet_bytes", WRITERS[writer]())
    view = ViewMatrix.from_codes([0, 1], [0, 0], ("a", "\udcff"), ("x",))
    with pytest.raises(UnicodeEncodeError):
        view.write_triplets(tmp_path / "m.triplets")
    assert list(tmp_path.iterdir()) == []


def triplet_args():
    """format_triplets inputs of a small view, as a list: indptr, indices,
    codes, the row, column and value tables, and a uint8 buffer of the exact
    size filled with '?'."""
    view = vm([[1, 0, 2.5], [0, 0, 0], [3, 1, 1]])
    values, codes = np.unique(view.data, return_inverse=True)
    tables = [_kernels._pieces(view.row_names, "\t"), _kernels._pieces(view.col_names, "\t"),
              _kernels._pieces(map(repr, values.tolist()), "\n")]
    size = len(_kernels._triplet_bytes(view.indptr, view.indices, view.data,
                                       view.row_names, view.col_names))
    return [view.indptr, view.indices, codes, *tables, np.full(size, ord("?"), np.uint8)]


def read_only(a):
    a = a.copy()
    a.flags.writeable = False
    return a


def spoiled_offsets(table):
    text, at = table
    at = at.copy()
    at[-1] = len(text) + 1
    return text, at


BAD_TRIPLET_ARGUMENTS = {
    "column index equal to ncols": (1, lambda a: np.full_like(a, 3)),
    "negative column index": (1, first_negative),
    "value code equal to the value count": (2, lambda a: np.full_like(a, 3)),
    "negative value code": (2, first_negative),
    "indptr past the entries": (0, lambda a: a + 100),
    "indptr too short": (0, lambda a: a[:-1]),
    "indptr decreasing": (0, decreasing),
    "codes shorter than indices": (2, lambda a: a[:-1]),
    "a column offset past its text": (4, spoiled_offsets),
    "a buffer one byte too small": (6, lambda a: a[:-1]),
    "a buffer one byte too large": (6, lambda a: np.concatenate((a, a[:1]))),
    "a read-only buffer": (6, read_only),
    "row text as str": (3, lambda table: (table[0].decode(), table[1])),
}


@requires_c
@pytest.mark.parametrize("case", sorted(BAD_TRIPLET_ARGUMENTS))
def test_c_format_triplets_rejects_bad_arguments(case):
    position, spoil = BAD_TRIPLET_ARGUMENTS[case]
    args = triplet_args()
    args[position] = spoil(args[position])
    out = args[6]
    with pytest.raises(ValueError):
        _kernels.format_triplets(*args)
    assert (out == ord("?")).all()  # nothing written


@requires_c
def test_c_format_triplets_fills_the_exact_buffer():
    args = triplet_args()
    assert _kernels.format_triplets(*args).tobytes() == (
        b"r0\tc0\t1.0\nr0\tc2\t2.5\nr2\tc0\t3.0\nr2\tc1\t1.0\nr2\tc2\t1.0\n")
