"""Tests of the benchmark's own code: the corpus generator, the tracer, the
metric table and a tiny run of every workload."""
import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (str(BENCH), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import corpus  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402

TINY_CORPUS = corpus.CorpusSpec(groups=3, tags_per_group=5, days=4, posts_per_day=60,
                                words_per_post=6, churn=0.4, periods=2)
TINY = {
    "corpus": {"kind": "corpus", "corpus": TINY_CORPUS, "config": {}},
    "graphs": {"kind": "graphs", "graphs": {"n": 40, "blocks": 2, "p_in": 0.5, "p_out": 0.05,
                                            "views": 2, "noise_views": 1, "instances": 1}},
}
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_generator_is_deterministic_per_seed():
    assert corpus.generate(TINY_CORPUS, 5) == corpus.generate(TINY_CORPUS, 5)
    assert corpus.generate(TINY_CORPUS, 5) != corpus.generate(TINY_CORPUS, 6)


def test_truth_covers_every_kept_hashtag():
    from mvmc.ingest import build_daily_views, group_by_day, parse_json_record

    posts, truth = corpus.generate(TINY_CORPUS, 3)
    days = group_by_day([parse_json_record(json.dumps(p)) for p in posts])
    assert sorted(day.isoformat() for day in days) == sorted(truth)
    for day, day_posts in days.items():
        registry = build_daily_views(day_posts, day).hashtags
        assert registry and set(registry) <= set(truth[day.isoformat()])


def test_metric_names_are_valid_and_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        names = [name for name, _unit, _better in table]
        assert all(NAME.fullmatch(name) for name in names)
        assert len(set(names)) == len(names)
        assert [(m["name"], m["unit"], m["better"]) for m in spec[key]] == table
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_tracer_calls_through_and_restores_originals():
    import mvmc.graph
    import mvmc.modularity

    raw_from_edges = vars(mvmc.graph.ViewGraph)["from_edges"]
    kernel = mvmc.modularity.move_pass
    tr = tracer.Tracer()
    tr.install(tracer.HOOKS + [("mvmc.cli", "no_such_function", "missing", None)])
    try:
        graph = mvmc.graph.ViewGraph.from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)])
        labels = mvmc.modularity.maximize([graph]).labels
    finally:
        tr.uninstall()
    assert vars(mvmc.graph.ViewGraph)["from_edges"] is raw_from_edges
    assert mvmc.modularity.move_pass is kernel
    assert labels[0] == labels[1] != labels[2] == labels[3]
    assert "missing" not in tr.installed
    metrics = tracer.layer_metrics(tr)
    assert metrics["kernel.sweeps"] >= 1 and metrics["graph.from_edges_s"] > 0


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_tiny_run_prints_every_metric(workload, trace, monkeypatch, tmp_path, capsys):
    monkeypatch.setitem(run.WORKLOADS, workload, TINY[run.WORKLOADS[workload]["kind"]])
    monkeypatch.setattr(run, "pin_to_one_cpu", lambda: -1)  # leave the test process free
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    argv = ["--workload", workload, "--seed", "1", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    table = run.PER_LAYER if trace else run.END_TO_END
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1 + trace
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        name: unit for name, unit, _better in table
    }
    for name, unit, _better in table:
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in lines)
    assert not (tmp_path / "work").exists()


def test_failed_operations_are_counted_not_hidden(monkeypatch, tmp_path, capsys):
    # two posts a day leave no hashtag at the 3-post floor, so the pipeline aborts
    quiet = corpus.CorpusSpec(groups=2, tags_per_group=3, days=2, posts_per_day=2,
                              words_per_post=4, churn=0.0, periods=1)
    monkeypatch.setitem(run.WORKLOADS, "corpus_wide", {"kind": "corpus", "corpus": quiet, "config": {}})
    monkeypatch.setattr(run, "pin_to_one_cpu", lambda: -1)
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    argv = ["--workload", "corpus_wide", "--seed", "1", "--seconds", "0", "--trace", "0"]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert result["metrics"]["ok_ratio"]["value"] == 0.0


def test_host_speed_rescales_each_segment_by_its_calibration(monkeypatch):
    loops = iter([0.09, 0.09, 0.045, 0.045])
    monkeypatch.setattr(speed, "calibrate", lambda: next(loops))
    clock = iter([0.0, 2.0, 2.5, 3.5, 4.0])
    monkeypatch.setattr(speed, "perf_counter", lambda: next(clock))
    hs = speed.HostSpeed()                 # loop 0.09 s
    hs.start()                             # t=0
    hs.checkpoint()                        # 2 s at loops 0.09/0.09, next starts at 2.5
    raw, scaled = hs.stop()                # 1 s at loops 0.09/0.045
    assert raw == 3.0
    assert scaled == 2.0 * speed.REFERENCE_S / 0.09 + 1.0 * speed.REFERENCE_S / 0.0675
    assert hs.loops == [0.09, 0.09, 0.045]
    assert hs.stop() == (3.0, scaled)      # nothing open: no further loop
    assert next(loops) == 0.045


def test_checkpoints_call_through_and_restore(monkeypatch):
    import mvmc.graph
    import mvmc.modularity

    kernel = mvmc.modularity.move_pass
    monkeypatch.setattr(speed, "SEGMENT_S", 0.0)
    hs = speed.HostSpeed()
    hs.start()
    with hs.checkpoints_after([("mvmc.modularity", "move_pass"), ("mvmc.cli", "no_such"),
                               ("no_such_module", "f")]):
        assert mvmc.modularity.move_pass is not kernel
        graph = mvmc.graph.ViewGraph.from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)])
        labels = mvmc.modularity.maximize([graph]).labels
    raw, scaled = hs.stop()
    assert mvmc.modularity.move_pass is kernel
    assert labels[0] == labels[1] != labels[2] == labels[3]
    assert len(hs.loops) >= 3 and raw > 0 and scaled > 0
