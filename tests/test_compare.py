import numpy as np
import pytest

from mvmc import (
    DUMMY_LABEL,
    GraphUsageError,
    LabeledClustering,
    adjusted_rand_index,
    agglomerative_meta_cluster,
    average_linkage_merges,
    cross_level,
    pairwise_ari_matrix,
    write_ari_matrix,
)

from oracles import brute_ari


def lc(tag, mapping):
    return LabeledClustering(dict(mapping), tag)


def test_ari_identical_partitions():
    a = lc("a", {"x": 0, "y": 0, "z": 1})
    b = lc("b", {"x": 5, "y": 5, "z": 2})  # same structure, different ids
    assert adjusted_rand_index(a, b) == 1.0


def test_ari_known_negative_case():
    # two objects per cluster, second partition splits every pair across
    a = lc("a", {0: 0, 1: 0, 2: 1, 3: 1})
    b = lc("b", {0: 0, 1: 1, 2: 0, 3: 1})
    assert adjusted_rand_index(a, b) == pytest.approx(-0.5)


def test_ari_degenerate_cases():
    singletons = lc("a", {0: 0, 1: 1, 2: 2})
    lumped = lc("b", {0: 0, 1: 0, 2: 0})
    assert adjusted_rand_index(singletons, singletons) == 1.0
    assert adjusted_rand_index(lumped, lumped) == 1.0
    # singletons vs one lump is the standard zero of the adjusted index
    assert adjusted_rand_index(singletons, lumped) == 0.0
    # single-object universe has no pairs at all
    assert adjusted_rand_index(lc("a", {0: 0}), lc("b", {0: 7})) == 1.0


def test_ari_object_mismatch_rejected():
    a = lc("a", {0: 0, 1: 0})
    b = lc("b", {0: 0, 2: 0})
    with pytest.raises(GraphUsageError):
        adjusted_rand_index(a, b)
    with pytest.raises(GraphUsageError):
        pairwise_ari_matrix([a, lc("c", {1: 1, 0: 0}), b])


def test_ari_matches_bruteforce_oracle():
    rng = np.random.default_rng(30)
    for _ in range(20):
        n = int(rng.integers(5, 200))
        la = [int(x) for x in rng.integers(0, 6, size=n)]
        lb = [int(x) for x in rng.integers(0, 4, size=n)]
        a = lc("a", {i: la[i] for i in range(n)})
        b = lc("b", {i: lb[i] for i in range(n)})
        got = adjusted_rand_index(a, b)
        assert got == pytest.approx(brute_ari(la, lb), abs=1e-12)
        assert got <= 1.0
    # the matrix path on cross-leveled days: dummy labels, mixed int and str
    # labels, one label, all singletons, and a day with many labels
    for _ in range(6):
        universe = [f"o{i}" for i in range(int(rng.integers(5, 80)))]
        mixed = [0, 1, "0", "a"]
        draws = [
            lambda i: int(rng.integers(0, 6)),
            lambda i: mixed[int(rng.integers(0, 4))],
            lambda i: "one",
            lambda i: i,
            lambda i: int(rng.integers(0, 20)),
        ]
        days = [
            lc(f"d{d}", {o: draw(i) for i, o in enumerate(universe) if rng.random() < 0.8})
            for d, draw in enumerate(draws)
        ]
        leveled = cross_level(days)
        mat = pairwise_ari_matrix(leveled)
        assert np.array_equal(mat, mat.T)
        assert np.array_equal(np.diag(mat), np.ones(len(days)))
        labels = [[c.assignments[o] for o in universe] for c in leveled]
        for i in range(len(days)):
            for j in range(i + 1, len(days)):
                assert mat[i, j] == adjusted_rand_index(leveled[i], leveled[j])
                assert mat[i, j] == pytest.approx(
                    brute_ari(labels[i], labels[j]), abs=1e-12
                )


def test_ari_symmetry():
    rng = np.random.default_rng(31)
    la = rng.integers(0, 5, size=50)
    lb = rng.integers(0, 3, size=50)
    a = lc("a", {i: int(la[i]) for i in range(50)})
    b = lc("b", {i: int(lb[i]) for i in range(50)})
    assert adjusted_rand_index(a, b) == adjusted_rand_index(b, a)


def test_cross_level_extends_with_dummy():
    a = lc("a", {"x": 0, "y": 1})
    b = lc("b", {"y": 0, "z": 1})
    out = cross_level([a, b])
    assert set(out[0].assignments) == {"x", "y", "z"}
    assert out[0].assignments["z"] == DUMMY_LABEL
    assert out[1].assignments["x"] == DUMMY_LABEL
    assert out[1].assignments["y"] == 0


def test_cross_level_dummy_counts_as_one_cluster():
    # absent objects all land in the same dummy cluster, so two clusterings
    # over disjoint universes still compare deterministically
    a = lc("a", {"x": 0, "y": 0})
    b = lc("b", {"z": 0, "w": 0})
    ax, bx = cross_level([a, b])
    val = adjusted_rand_index(ax, bx)
    assert -1.0 <= val <= 1.0


def test_pairwise_matrix_properties():
    rng = np.random.default_rng(32)
    clusterings = []
    for d in range(4):
        objs = [f"o{i}" for i in range(20)]
        labels = rng.integers(0, 3, size=20)
        clusterings.append(lc(f"d{d}", {o: int(l) for o, l in zip(objs, labels)}))
    mat = pairwise_ari_matrix(clusterings)
    assert mat.shape == (4, 4)
    np.testing.assert_allclose(np.diag(mat), 1.0)
    np.testing.assert_allclose(mat, mat.T)
    assert pairwise_ari_matrix([]).shape == (0, 0)
    assert pairwise_ari_matrix(clusterings[:1]).tolist() == [[1.0]]


def test_ari_matrix_tsv(tmp_path):
    a = lc("day1", {0: 0, 1: 0, 2: 1})
    b = lc("day2", {0: 0, 1: 1, 2: 1})
    mat = pairwise_ari_matrix([a, b])
    path = tmp_path / "mat.tsv"
    write_ari_matrix(mat, ["day1", "day2"], path)
    lines = path.read_text().splitlines()
    assert lines[0].split("\t") == ["", "day1", "day2"]
    assert lines[1].split("\t")[0] == "day1"
    assert float(lines[1].split("\t")[1]) == 1.0


def test_average_linkage_two_pairs():
    # 0-1 close, 2-3 close, the pairs far apart
    d = np.array(
        [
            [0.0, 1.0, 9.0, 9.0],
            [1.0, 0.0, 9.0, 9.0],
            [9.0, 9.0, 0.0, 2.0],
            [9.0, 9.0, 2.0, 0.0],
        ]
    )
    merges = average_linkage_merges(d)
    assert len(merges) == 3
    assert merges[0] == (0, 0, 1, 1.0)
    assert merges[1] == (1, 2, 3, 2.0)
    # final merge joins the two composite clusters at the mean distance 9
    assert merges[2][1:] == (4, 5, pytest.approx(9.0))


def test_average_linkage_heights_monotone():
    rng = np.random.default_rng(33)
    pts = rng.normal(size=(12, 3))
    d = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
    merges = average_linkage_merges(d)
    heights = [h for _, _, _, h in merges]
    assert all(b >= a - 1e-12 for a, b in zip(heights, heights[1:]))


def test_average_linkage_tie_break_deterministic():
    d = 1.0 - np.eye(4)  # all pairwise distances equal
    merges = average_linkage_merges(d)
    assert merges[0][1:3] == (0, 1)


def test_meta_cluster_recovers_blocks():
    # similarity matrix with two clear blocks; distance = 1 - similarity
    sim = np.full((6, 6), 0.1)
    for block in ([0, 1, 2], [3, 4, 5]):
        for i in block:
            for j in block:
                sim[i, j] = 0.9
    np.fill_diagonal(sim, 1.0)
    labels = agglomerative_meta_cluster(sim, k=2)
    assert labels[0] == labels[1] == labels[2]
    assert labels[3] == labels[4] == labels[5]
    assert labels[0] != labels[3]
    assert labels[0] == 0  # first-appearance relabeling


def test_meta_cluster_isolates_outlier():
    sim = np.full((5, 5), 0.8)
    sim[4, :] = sim[:, 4] = 0.0
    np.fill_diagonal(sim, 1.0)
    labels = agglomerative_meta_cluster(sim, k=2)
    assert labels[4] != labels[0]
    assert len(set(labels[:4])) == 1


def test_meta_cluster_k_bounds():
    sim = np.eye(3)
    assert agglomerative_meta_cluster(sim, k=3).tolist() == [0, 1, 2]
    with pytest.raises(GraphUsageError):
        agglomerative_meta_cluster(sim, k=0)
    with pytest.raises(GraphUsageError):
        agglomerative_meta_cluster(sim, k=4)


def test_labeled_clustering_tsv_roundtrip(tmp_path):
    a = lc("day1", {"apple": 0, "pear": 1, "plum": 0})
    path = tmp_path / "c.tsv"
    a.write_tsv(path)
    back = LabeledClustering.read_tsv(path, tag="day1")
    assert back.assignments == {"apple": "0", "pear": "1", "plum": "0"}
    assert adjusted_rand_index(back, lc("x", back.assignments)) == 1.0
