import numpy as np
import pytest

from mvmc import (
    DUMMY_LABEL,
    LabeledClustering,
    adjusted_rand_index,
    average_internal_ari,
    build_object_cluster_graph,
    cross_level,
    ensemble_cluster,
    filter_small_clusters,
)
from mvmc.ensemble import MIN_CLUSTER_SIZE
from mvmc.graph import densify_labels

from oracles import brute_ari, brute_ari_matrix


def lc(tag, mapping):
    return LabeledClustering(dict(mapping), tag)


def block_clustering(tag, n, block, noise_frac, rng):
    labels = {i: i // block for i in range(n)}
    flip = rng.choice(n, size=int(noise_frac * n), replace=False)
    for i in flip:
        labels[int(i)] = int(rng.integers(0, n // block))
    return lc(tag, labels)


def test_filter_small_clusters():
    c = lc("a", {i: (0 if i < 6 else 1) for i in range(8)})
    kept = filter_small_clusters(c, min_size=5)
    assert set(kept.assignments) == set(range(6))
    assert kept.tag == "a"
    assert MIN_CLUSTER_SIZE == 5


def test_object_cluster_graph_shape():
    a = lc("d1", {"x": 0, "y": 0, "z": 1})
    b = lc("d2", {"x": 0, "y": 1, "z": 1})
    g = build_object_cluster_graph([a, b], ["x", "y", "z"])
    # 3 objects + 4 (day, cluster) vertices
    assert g.n == 7
    assert len(g.edge_u) == 6  # one unit edge per membership
    assert set(g.edge_w) == {1.0}


def test_object_cluster_graph_skips_dummy():
    a = lc("d1", {"x": 0, "y": DUMMY_LABEL})
    b = lc("d2", {"x": 0, "y": 0})
    g = build_object_cluster_graph([a, b], ["x", "y"])
    # y contributes a single edge (its d1 membership is a dummy)
    assert len(g.edge_u) == 3


def test_ensemble_of_identical_clusterings_reproduces_input():
    base = {i: i // 10 for i in range(30)}
    days = [lc(f"d{t}", base) for t in range(4)]
    consensus = ensemble_cluster(days, seed=0)
    got = [consensus.assignments[i] for i in range(30)]
    truth = [base[i] for i in range(30)]
    assert brute_ari(got, truth) == pytest.approx(1.0)


def test_ensemble_invariant_to_relabeling():
    base = {i: i // 10 for i in range(30)}
    relabeled = {i: (base[i] + 1) % 3 for i in range(30)}
    consensus = ensemble_cluster([lc("d1", base), lc("d2", relabeled)], seed=0)
    got = [consensus.assignments[i] for i in range(30)]
    assert brute_ari(got, [base[i] for i in range(30)]) == pytest.approx(1.0)


def test_ensemble_improves_on_noisy_copies():
    rng = np.random.default_rng(40)
    n, block = 90, 30
    truth = [i // block for i in range(n)]
    days = [block_clustering(f"d{t}", n, block, 0.2, rng) for t in range(7)]
    consensus = ensemble_cluster(days, seed=1)
    got = [consensus.assignments[i] for i in range(n)]
    ari_consensus = brute_ari(got, truth)
    ari_inputs = [
        brute_ari([d.assignments[i] for i in range(n)], truth) for d in days
    ]
    assert ari_consensus >= max(ari_inputs) - 1e-12


def test_ensemble_deterministic():
    rng = np.random.default_rng(41)
    days = [block_clustering(f"d{t}", 40, 10, 0.25, rng) for t in range(4)]
    a = ensemble_cluster(days, seed=5)
    b = ensemble_cluster(days, seed=5)
    assert a.assignments == b.assignments
    # the consensus labels, read in the sorted universe's order, are dense
    # in first-appearance order
    labels = [a.assignments[obj] for obj in sorted(a.assignments)]
    assert labels == densify_labels(labels).tolist()


def test_average_internal_ari():
    a = lc("d1", {0: 0, 1: 0, 2: 1, 3: 1})
    b = lc("d2", {0: 0, 1: 0, 2: 1, 3: 1})
    c = lc("d3", {0: 0, 1: 1, 2: 0, 3: 1})
    assert average_internal_ari([a, b]) == pytest.approx(1.0)
    expected = (1.0 + adjusted_rand_index(a, c) * 2) / 3
    assert average_internal_ari([a, b, c]) == pytest.approx(expected)
    rng = np.random.default_rng(42)
    days = [block_clustering(f"d{t}", 40, 10, 0.3, rng) for t in range(5)]
    pairs = [
        adjusted_rand_index(days[i], days[j])
        for i in range(5)
        for j in range(i + 1, 5)
    ]
    assert average_internal_ari(days) == float(np.mean(pairs))
    # days over different hashtags compare over their union, the hashtags a
    # day lacks forming its dummy group
    days = [lc(f"d{t}", {f"h{i}": int(rng.integers(0, 3)) for i in range(t * 10, t * 10 + 30)})
            for t in range(4)]
    matrix = brute_ari_matrix(cross_level(days))
    assert average_internal_ari(days) == float(np.mean(matrix[np.triu_indices(4, 1)]))
