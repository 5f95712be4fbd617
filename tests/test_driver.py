import math

import numpy as np
import pytest

from mvmc import (
    Clustering,
    GraphUsageError,
    MvmcConfig,
    Propensities,
    ViewGraph,
    _kernels,
    driver,
    edge_propensities,
    modularity,
    rb_modularity,
    run_mvmc,
    update_resolution,
    update_weights,
)
from mvmc.synth import planted_partition_views

from oracles import brute_gamma, brute_thetas, brute_weights

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


def test_propensities_two_triangles():
    p = edge_propensities([TWO_TRIANGLES], SPLIT)
    assert p.theta_in[0] == pytest.approx(2.0)
    assert p.theta_out[0] == pytest.approx(1 / 6)


def test_propensities_all_singletons():
    p = edge_propensities([TWO_TRIANGLES], Clustering(np.arange(6)))
    assert p.theta_in[0] == pytest.approx(1 / 6)  # 1/|E| substitute


def test_propensities_all_in_one():
    p = edge_propensities([TWO_TRIANGLES], Clustering(np.zeros(6, dtype=int)))
    assert p.theta_out[0] == pytest.approx(1 / 6)


def test_propensities_empty_view_neutral():
    empty = ViewGraph.from_edges(6, [])
    p = edge_propensities([TWO_TRIANGLES, empty], SPLIT)
    assert p.theta_in[1] == 1.0 and p.theta_out[1] == 1.0


def test_propensities_match_bruteforce():
    rng = np.random.default_rng(20)
    for _ in range(20):
        n = int(rng.integers(4, 20))
        g = random_graph(rng, n)
        from mvmc.graph import densify_labels

        labels = densify_labels(rng.integers(0, 3, size=n))
        c = Clustering(labels)
        p = edge_propensities([g], c)
        edges = list(zip(g.edge_u, g.edge_v, g.edge_w))
        t_in, t_out = brute_thetas(edges, n, labels)
        assert p.theta_in[0] == pytest.approx(t_in, rel=1e-9)
        assert p.theta_out[0] == pytest.approx(t_out, rel=1e-9)
        assert p.theta_in[0] > 0 and p.theta_out[0] > 0


def test_update_resolution_examples():
    p = Propensities(np.array([2.0]), np.array([1 / 6]))
    assert update_resolution(p)[0] == pytest.approx((2 - 1 / 6) / math.log(12))
    p = Propensities(np.array([0.5]), np.array([0.5]))
    assert update_resolution(p)[0] == pytest.approx(0.5)
    p = Propensities(np.array([math.e * 0.3]), np.array([0.3]))
    assert update_resolution(p)[0] == pytest.approx(0.3 * (math.e - 1))


def test_resolution_between_thetas():
    rng = np.random.default_rng(21)
    for _ in range(50):
        t_out = rng.uniform(0.01, 1)
        t_in = t_out + rng.uniform(0.01, 3)
        gamma = update_resolution(Propensities(np.array([t_in]), np.array([t_out])))[0]
        assert t_out < gamma < t_in


def test_update_weights_examples():
    p = Propensities(np.array([2.0, 4.0]), np.array([1.0, 2.0]))
    np.testing.assert_allclose(update_weights(p), [1.0, 1.0])
    p = Propensities(
        np.array([math.e**2, math.e]), np.array([1.0, 1.0])
    )  # ln ratios 2 and 1
    np.testing.assert_allclose(update_weights(p), [4 / 3, 2 / 3])
    p = Propensities(np.array([3.0]), np.array([0.5]))
    np.testing.assert_allclose(update_weights(p), [1.0])


def test_weights_average_to_one():
    rng = np.random.default_rng(22)
    for _ in range(50):
        t_in = rng.uniform(0.5, 4, size=3)
        t_out = rng.uniform(0.01, 0.4, size=3)
        w = update_weights(Propensities(t_in, t_out))
        assert w.mean() == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_allclose(w, brute_weights(t_in, t_out), rtol=1e-9)


def test_run_mvmc_recovers_planted_blocks():
    graphs, truth = planted_partition_views(60, 2, 0.5, 0.02, n_views=2, seed=1)
    clustering, trace = run_mvmc(graphs, MvmcConfig(seed=1))
    assert trace.converged
    assert len(trace.records) <= 20
    from oracles import brute_ari

    assert brute_ari(list(clustering.labels), list(truth)) == pytest.approx(1.0)


def test_noise_view_gets_smaller_weight():
    graphs, _ = planted_partition_views(
        60, 3, 0.4, 0.03, n_views=1, n_noise_views=1, seed=2
    )
    clustering, _ = run_mvmc(graphs, MvmcConfig(seed=2))
    weights = clustering.meta["weights"]
    assert weights[1] < weights[0]


def test_max_iter_one_returns_initial_params():
    graphs, _ = planted_partition_views(30, 2, 0.5, 0.05, n_views=1, seed=3)
    clustering, trace = run_mvmc(graphs, MvmcConfig(max_iter=1, seed=3))
    assert len(trace.records) == 1
    assert trace.records[0].weights.tolist() == [1.0]
    assert trace.records[0].resolutions.tolist() == [1.0]


def test_best_iteration_chosen_when_not_converged():
    graphs, _ = planted_partition_views(40, 2, 0.5, 0.05, n_views=2, seed=4)
    cfg = MvmcConfig(max_iter=3, resolution_tol=1e-9, weight_tol=1e-9, seed=4)
    clustering, trace = run_mvmc(graphs, cfg)
    if not trace.converged:
        qs = [r.modularity for r in trace.records]
        assert trace.chosen_iteration == int(np.argmax(qs)) + 1
        assert clustering.meta["modularity"] == max(qs)


def test_run_mvmc_deterministic():
    graphs, _ = planted_partition_views(50, 3, 0.4, 0.04, n_views=2, seed=5)
    c1, t1 = run_mvmc(graphs, MvmcConfig(seed=7))
    c2, t2 = run_mvmc(graphs, MvmcConfig(seed=7))
    assert np.array_equal(c1.labels, c2.labels)
    assert [r.modularity for r in t1.records] == [r.modularity for r in t2.records]


@pytest.mark.parametrize("kwargs", [
    {"max_iter": 0},
    {"max_iter": 2.5},
    {"max_iter": 3.0},
    {"resolution_tol": math.nan},
    {"weight_tol": math.inf},
    {"resolution_tol": 0.0},
    {"weight_tol": -0.1},
    {"seed": -1},
    {"seed": 1.5},
    {"seed": "3"},
    {"seed": None},
])
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(GraphUsageError):
        MvmcConfig(**kwargs)


def test_config_takes_numpy_integers():
    assert MvmcConfig(max_iter=np.int64(3)).max_iter == 3
    assert MvmcConfig(seed=np.int64(2)).seed == 2


def test_run_mvmc_rejects_bad_view_sets():
    with pytest.raises(GraphUsageError, match="at least one view"):
        run_mvmc([], MvmcConfig())
    with pytest.raises(GraphUsageError, match="share the node count"):
        run_mvmc([TWO_TRIANGLES, ViewGraph.from_edges(4, [])], MvmcConfig())


def test_trace_export(tmp_path):
    graphs, _ = planted_partition_views(30, 2, 0.5, 0.05, n_views=2, seed=6)
    _, trace = run_mvmc(graphs, MvmcConfig(seed=6))
    path = tmp_path / "trace.tsv"
    trace.write(path)
    header, *lines = path.read_text().strip().split("\n")
    assert header.split("\t") == ["iteration", "resolution_0", "resolution_1",
                                   "weight_0", "weight_1", "modularity", "clusters"]
    assert len(lines) == len(trace.records)
    first = lines[0].split("\t")
    # iter, 2 gammas, 2 weights, Q, cluster count
    assert len(first) == 7 and first[0] == "1"


def test_trace_fields_all_parse_as_numbers(tmp_path):
    graphs, _ = planted_partition_views(40, 2, 0.5, 0.05, n_views=2, n_noise_views=1, seed=8)
    _, trace = run_mvmc(graphs, MvmcConfig(seed=8))
    path = tmp_path / "trace.tsv"
    trace.write(path)
    _header, *lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == len(trace.records) >= 1
    for line, record in zip(lines, trace.records):
        values = [float(x) for x in line.split("\t")]
        assert len(values) == 3 + 2 * len(graphs)
        assert values[-2] == record.modularity


def test_modularity_values_are_python_floats():
    graphs, _ = planted_partition_views(30, 2, 0.5, 0.05, n_views=2, seed=6)
    clustering, trace = run_mvmc(graphs, MvmcConfig(seed=6))
    assert type(rb_modularity(graphs, clustering)) is float
    assert type(modularity.maximize(graphs, seed=6).meta["modularity"]) is float
    assert type(clustering.meta["modularity"]) is float
    assert all(type(r.modularity) is float for r in trace.records)


def test_degenerate_partitions_keep_updates_finite():
    rng = np.random.default_rng(23)
    for _ in range(10):
        n = int(rng.integers(4, 15))
        g = random_graph(rng, n, 0.5)
        for c in (Clustering(np.arange(n)), Clustering(np.zeros(n, dtype=int))):
            p = edge_propensities([g], c)
            gamma = update_resolution(p)
            w = update_weights(p)
            assert np.all(np.isfinite(gamma)) and np.all(gamma > 0)
            assert np.all(np.isfinite(w))


# (n, blocks, p_in, p_out, views, noise views, seed, max_iter, tolerance); the
# last runs out of iterations, so the chosen one is the best, not the last
PLANTED = [
    (40, 2, 0.5, 0.05, 2, 0, 11, 20, 0.05),
    (60, 3, 0.4, 0.04, 2, 1, 12, 20, 0.05),
    (48, 3, 0.3, 0.06, 1, 1, 13, 20, 0.05),
    (50, 4, 0.2, 0.1, 2, 1, 14, 4, 1e-9),
]


def spied_runs(monkeypatch):
    """run_mvmc on each planted instance, with every `maximize` call the
    driver makes: its weights, resolutions, labels and a copy of its meta."""
    runs = []
    for n, blocks, p_in, p_out, views, noise, seed, max_iter, tol in PLANTED:
        graphs, _ = planted_partition_views(n, blocks, p_in, p_out, views, noise, seed)
        calls = []

        def spy(graphs, weights, resolutions, **kwargs):
            result = modularity.maximize(graphs, weights, resolutions, **kwargs)
            calls.append((weights, resolutions, result.labels, dict(result.meta)))
            return result

        monkeypatch.setattr(driver, "maximize", spy)
        cfg = MvmcConfig(max_iter=max_iter, resolution_tol=tol, weight_tol=tol, seed=seed)
        runs.append((graphs, *run_mvmc(graphs, cfg), calls))
    return runs


def test_trace_modularity_is_the_maximizers_score(monkeypatch):
    runs = spied_runs(monkeypatch)
    assert any(trace.chosen_iteration < len(trace.records) for _g, _c, trace, _calls in runs)
    for graphs, _clustering, trace, calls in runs:
        assert len(trace.records) == len(calls)
        for record, (weights, resolutions, labels, _meta) in zip(trace.records, calls):
            assert np.array_equal(record.weights, weights)
            assert np.array_equal(record.resolutions, resolutions)
            q = rb_modularity(graphs, Clustering(labels), weights, resolutions)
            assert repr(record.modularity) == repr(q)


def test_result_counters_sum_over_the_iterations(monkeypatch):
    for _graphs, clustering, trace, calls in spied_runs(monkeypatch):
        labels, meta = calls[trace.chosen_iteration - 1][2:]
        chosen = trace.records[trace.chosen_iteration - 1]
        assert np.array_equal(clustering.labels, labels)
        assert clustering.meta == {
            **meta,
            "sweeps": sum(m["sweeps"] for *_x, m in calls),
            "moves": sum(m["moves"] for *_x, m in calls),
            "levels": sum(m["levels"] for *_x, m in calls),
            "iterations": len(calls),
            "converged": trace.converged,
        }
        assert clustering.meta["modularity"] == chosen.modularity


def test_driver_results_identical_under_both_backends(monkeypatch):
    loaded = spied_runs(monkeypatch)
    # the reference: each restart driven from Python through the Python sweep
    # and the scipy aggregation
    monkeypatch.setattr(modularity, "run_restarts", modularity._restarts)
    monkeypatch.setattr(modularity, "move_pass", _kernels._move_pass)
    monkeypatch.setattr(modularity, "aggregate", _kernels._aggregate)
    reference = spied_runs(monkeypatch)
    for (_g, c1, t1, calls1), (_g2, c2, t2, calls2) in zip(loaded, reference):
        assert np.array_equal(c1.labels, c2.labels) and c1.meta == c2.meta
        assert [repr(r.modularity) for r in t1.records] == [repr(r.modularity) for r in t2.records]
        assert [m for *_x, m in calls1] == [m for *_x, m in calls2]
