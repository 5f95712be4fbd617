from collections import Counter

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

from mvmc import compare
from mvmc.compare import cut
from mvmc.ensemble import filter_small_clusters
from oracles import brute_ari, brute_ari_matrix, brute_average_linkage, brute_cut


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
    # the matrix compares clusterings over the union of their objects
    days = [a, lc("c", {1: 1, 0: 0}), b]
    assert pairwise_ari_matrix(days).tobytes() == brute_ari_matrix(cross_level(days)).tobytes()


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


MATRIX_CASES = ("overlapping", "disjoint", "emptied", "mixed_labels", "single_object",
                "identical", "leveled", "dummy_label")


def matrix_case(kind, rng):
    """Days of one seeded case of `kind` for the ARI matrix."""
    n_days = int(rng.integers(2, 7))
    size = int(rng.integers(2, 40))
    n_labels = int(rng.integers(1, 6))
    if kind == "disjoint":
        return [lc(f"d{d}", {f"o{d}_{i}": int(rng.integers(0, n_labels)) for i in range(size)})
                for d in range(n_days)]
    universe = [f"o{i}" if i % 3 else i for i in range(size)]
    if kind == "mixed_labels":
        # 0 and "0" are two labels; 1, True and 1.0 are one
        keys = [0, "0", 1, True, 1.0, "a", 2.5]
        draw = lambda: keys[int(rng.integers(0, len(keys)))]  # noqa: E731
    elif kind == "dummy_label":
        draw = lambda: [0, 1, DUMMY_LABEL][int(rng.integers(0, 3))]  # noqa: E731
    else:
        draw = lambda: int(rng.integers(0, n_labels))  # noqa: E731
    keep = rng.uniform(0.3, 1.0)
    days = [lc(f"d{d}", {o: draw() for o in universe if rng.random() < keep})
            for d in range(n_days)]
    if kind == "emptied":
        # all singletons: the size filter leaves the day empty
        days[int(rng.integers(0, n_days))] = lc("lonely", {o: i for i, o in enumerate(universe)})
        days = [filter_small_clusters(c, 2) for c in days]
    elif kind == "single_object":
        days[int(rng.integers(0, n_days))] = lc("one", {universe[0]: draw()})
    elif kind == "identical":
        days.append(days[int(rng.integers(0, n_days))])
    elif kind == "leveled":
        days = cross_level(days)
    return days


def case_properties(days):
    """Which of MATRIX_CASES a list of days shows."""
    objects = [c.objects for c in days]
    labels = [set(c.assignments.values()) for c in days]
    found = {
        "overlapping": len(set().union(*objects)) < sum(map(len, objects)),
        "disjoint": sum(map(bool, objects)) >= 2
                    and len(set().union(*objects)) == sum(map(len, objects)),
        "emptied": not all(objects),
        "mixed_labels": any({0, "0", True} <= keys for keys in labels),
        "single_object": any(len(o) == 1 for o in objects),
        "identical": any(a.assignments == b.assignments
                         for i, a in enumerate(days) for b in days[i + 1:]),
        "leveled": all(o == objects[0] for o in objects),
        "dummy_label": any(DUMMY_LABEL in c.assignments.values() for c in days),
    }
    return [name for name, shown in found.items() if shown]


def test_ari_matrix_matches_the_per_pair_oracle_bit_for_bit():
    rng = np.random.default_rng(34)
    seen = Counter()
    for t in range(240):
        days = matrix_case(MATRIX_CASES[t % len(MATRIX_CASES)], rng)
        seen.update(case_properties(days))
        got = pairwise_ari_matrix(days)
        assert got.tobytes() == brute_ari_matrix(cross_level(days)).tobytes(), t
    assert min(seen[kind] for kind in MATRIX_CASES) >= 20, seen
    # dict-key semantics of labels: 1, True and 1.0 together, 0 apart from "0"
    keys = lc("keys", {"a": 1, "b": True, "c": 1.0, "d": 0, "e": "0"})
    named = lc("named", {"a": "x", "b": "x", "c": "x", "d": "y", "e": "z"})
    assert pairwise_ari_matrix([keys, named])[0, 1] == 1.0


def test_ari_matrix_has_the_same_bytes_for_any_block_of_label_pairs(monkeypatch):
    # the label pairs are counted in blocks of earlier days: one day per block,
    # several days per block and one block for all give the oracle's bytes,
    # and the counting takes both of its routes, with and without weights
    routes, calls = Counter(), Counter()
    tally = compare._tally

    def spy(keys, size, weights=None):
        routes[size <= 4 * len(keys), weights is None] += 1
        calls[compare.PAIR_BLOCK] += 1
        return tally(keys, size, weights)

    monkeypatch.setattr(compare, "_tally", spy)
    rng = np.random.default_rng(36)
    merged = 0
    for t in range(120):
        days = matrix_case(MATRIX_CASES[t % len(MATRIX_CASES)], rng)
        expected = brute_ari_matrix(cross_level(days)).tobytes()
        calls.clear()
        for block in (0, 1, 7, 60, compare.PAIR_BLOCK):
            monkeypatch.setattr(compare, "PAIR_BLOCK", block)
            assert pairwise_ari_matrix(days).tobytes() == expected, (t, block)
        merged += calls[60] < calls[0]
    assert merged >= 20, merged
    assert len(routes) == 4 and min(routes.values()) >= 20, routes


def test_ari_matrix_sorts_label_pair_keys_past_int32(monkeypatch):
    # 40,000 labels on one day and 39,000 on the next: the (earlier label,
    # later label) keys range past 2**31, so they are sorted as int64
    sizes = []
    tally = compare._tally
    monkeypatch.setattr(compare, "_tally", lambda keys, size, weights=None: (
        sizes.append(size), tally(keys, size, weights))[1])
    a = lc("a", {f"h{i}": i for i in range(40_000)})
    b = lc("b", {f"h{i}": i % 39_000 for i in range(20_000, 60_000)})
    got = pairwise_ari_matrix([a, b])
    assert max(sizes) > 2**31
    assert got.tobytes() == brute_ari_matrix(cross_level([a, b])).tobytes()


def test_ari_matrix_pair_sums_exceed_int64():
    # 121,000 objects in two halves on both days: the pair-sum products, and
    # the ARI numerator between them, pass 2**63, so they must be Python ints
    flip = np.random.default_rng(35).random(121_000) < 0.01
    a = lc("a", {f"h{i}": i % 2 for i in range(120_000)})
    b = lc("b", {f"h{i}": int(i % 2 ^ flip[i]) for i in range(1_000, 121_000)})
    leveled = cross_level([a, b])
    assert len(leveled[0].assignments) > 80_000
    sum_a, sum_b = (sum(m * (m - 1) // 2 for m in Counter(c.assignments.values()).values())
                    for c in leveled)
    assert sum_a * sum_b > 2**63
    got = pairwise_ari_matrix([a, b])
    assert got.tobytes() == brute_ari_matrix(leveled).tobytes()
    assert got[0, 1] > 0.9


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


def test_average_linkage_matches_the_sequential_scan_oracle():
    rng = np.random.default_rng(36)
    # exact ties, and gaps below the 1e-15 tie tolerance
    levels = np.array([0.2, 0.5, 0.5 + 4e-16, 0.5 - 4e-16, 0.5 - 9e-16, 0.5 - 1.6e-15, 0.7, 1.0])
    for t in range(300):
        n = int(rng.integers(1, 16))
        if t % 3 == 2:
            d = rng.uniform(0.0, 1.5, (n, n))
        else:
            d = levels[rng.integers(0, len(levels), (n, n))]
        d = np.triu(d, 1)
        d = d + d.T
        assert average_linkage_merges(d) == brute_average_linkage(d), t


def test_average_linkage_keeps_the_sequential_tie_rule():
    # in scan order 0.5, 0.5 - 0.8e-15, 0.5 - 1.6e-15: the second is within
    # 1e-15 of the first and never replaces it, the third does
    d = np.zeros((3, 3))
    d[0, 1] = d[1, 0] = 0.5
    d[0, 2] = d[2, 0] = 0.5 - 0.8e-15
    d[1, 2] = d[2, 1] = 0.5 - 1.6e-15
    assert average_linkage_merges(d)[0][1:3] == (1, 2)


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


def test_cut_of_one_merge_list_gives_every_k():
    rng = np.random.default_rng(3)
    sim = rng.uniform(-0.2, 1.0, (6, 6))
    sim = (sim + sim.T) / 2
    np.fill_diagonal(sim, 1.0)
    merges = average_linkage_merges(1.0 - sim)
    for k in range(1, 7):
        labels = cut(merges, k)
        assert labels.tolist() == agglomerative_meta_cluster(sim, k).tolist()
        assert len(set(labels.tolist())) == k
    with pytest.raises(GraphUsageError):
        cut(merges, 7)


def test_cut_matches_the_union_find_oracle_at_every_k():
    rng = np.random.default_rng(11)
    for n in range(2, 30):
        d = rng.random((n, n))
        # rounding to one decimal makes ties, so equal heights are merged too
        d = np.round((d + d.T) / 2, 1 if n % 3 == 0 else 6)
        np.fill_diagonal(d, 0.0)
        merges = average_linkage_merges(d)
        for k in range(1, n + 1):
            assert cut(merges, k).tolist() == brute_cut(merges, k), (n, k)


def test_read_tsv_rejects_malformed_line(tmp_path):
    path = tmp_path / "c.tsv"
    path.write_text("apple\t0\n\npear 1\n")
    with pytest.raises(GraphUsageError, match=r"c\.tsv:3: expected object<TAB>label"):
        LabeledClustering.read_tsv(path)
    path.write_text("apple\t0\textra\n")
    with pytest.raises(GraphUsageError, match=r"c\.tsv:1: .* got 3 field"):
        LabeledClustering.read_tsv(path)
    path.write_text("a\t0\nb\t0\n\na\t1\n")
    with pytest.raises(GraphUsageError, match=r"c\.tsv:4: object 'a' listed twice"):
        LabeledClustering.read_tsv(path)
