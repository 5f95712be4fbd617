import importlib.util
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from click.testing import CliRunner

import mvmc
from mvmc import _kernels, cli, compare, ingest
from mvmc.cli import main
from mvmc.compare import (
    DUMMY_LABEL,
    LabeledClustering,
    cross_level,
    write_ari_matrix,
    write_dendrogram,
)
from mvmc.driver import IterationRecord, MvmcTrace
from mvmc.ensemble import average_internal_ari, filter_small_clusters
from mvmc.graph import GraphUsageError, atomic_write
from oracles import brute_ari_matrix


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def corpus(tmp_path, runner):
    out = tmp_path / "synth"
    result = runner.invoke(main, ["synth", "--mode", "corpus", "--seed", "7", str(out)])
    assert result.exit_code == 0, result.output
    return out / "posts.jsonl"


def tree_bytes(root: Path) -> dict:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_synth_graphs(tmp_path, runner):
    out = tmp_path / "g"
    result = runner.invoke(
        main, ["synth", "--mode", "graphs", "--n", "30", "--blocks", "2", str(out)]
    )
    assert result.exit_code == 0
    assert (out / "view_0.edges").is_file()
    assert (out / "truth.tsv").is_file()


def test_ingest_writes_day_directories(tmp_path, runner, corpus):
    out = tmp_path / "views"
    result = runner.invoke(main, ["ingest", str(corpus), str(out)])
    assert result.exit_code == 0, result.output
    days = sorted(d.name for d in out.iterdir())
    assert days == ["2020-03-01", "2020-03-02", "2020-03-03"]
    day = out / days[0]
    names = {p.name for p in day.iterdir()}
    assert names == {
        "registry.tsv",
        "text.triplets",
        "user.triplets",
        "url.triplets",
        "cooccur.triplets",
    }


def test_ingest_missing_input_exits_2(tmp_path, runner):
    result = runner.invoke(main, ["ingest", str(tmp_path / "nope.jsonl"), str(tmp_path)])
    assert result.exit_code == 2


def test_ingest_empty_input_exits_2(tmp_path, runner):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    result = runner.invoke(main, ["ingest", str(empty), str(tmp_path / "o")])
    assert result.exit_code == 2


def test_cluster_day(tmp_path, runner, corpus):
    views = tmp_path / "views"
    assert runner.invoke(main, ["ingest", str(corpus), str(views)]).exit_code == 0
    out = tmp_path / "c1"
    result = runner.invoke(main, ["cluster", str(views / "2020-03-01"), str(out)])
    assert result.exit_code == 0, result.output
    labels = (out / "labels.tsv").read_text().strip().split("\n")
    assert len(labels) == 18  # 3 groups x 6 hashtags
    assert (out / "trace.tsv").is_file()
    assert "clusters" in result.output


def test_cluster_missing_views_exits_2(tmp_path, runner):
    result = runner.invoke(main, ["cluster", str(tmp_path / "nodir"), str(tmp_path)])
    assert result.exit_code == 2


def test_compare_and_ensemble(tmp_path, runner):
    cdir = tmp_path / "clusters"
    cdir.mkdir()
    base = {f"#h{i}": i // 6 for i in range(18)}
    for day in ("2020-03-01", "2020-03-02"):
        lines = "".join(f"{h}\t{l}\n" for h, l in sorted(base.items()))
        (cdir / f"{day}.tsv").write_text(lines)
    out = tmp_path / "cmp"
    result = runner.invoke(main, ["compare", str(cdir), str(out), "--meta-k", "1"])
    assert result.exit_code == 0, result.output
    assert (out / "ari_matrix.tsv").is_file()
    assert (out / "dendrogram.tsv").is_file()
    meta = (out / "meta_clusters.tsv").read_text()
    assert meta == "2020-03-01\t0\n2020-03-02\t0\n"

    cons = tmp_path / "consensus.tsv"
    result = runner.invoke(main, ["ensemble", str(cdir), str(cons)])
    assert result.exit_code == 0, result.output
    rows = dict(
        line.split("\t") for line in cons.read_text().strip().split("\n")
    )
    assert len(rows) == 18
    # same structure as the inputs: hashtags of one block share a label
    assert len({rows[f"#h{i}"] for i in range(6)}) == 1


def test_compare_meta_k_above_the_clusterings_exits_2(tmp_path, runner):
    cdir = tmp_path / "clusters"
    cdir.mkdir()
    for day in ("2020-03-01", "2020-03-02", "2020-03-03"):
        (cdir / f"{day}.tsv").write_text("".join(f"#h{i}\t{i // 6}\n" for i in range(18)))
    out = tmp_path / "cmp"
    result = runner.invoke(main, ["compare", str(cdir), str(out), "--meta-k", "4"])
    assert result.exit_code == 2, result.output
    assert "error: meta-k=4 out of range" in result.output
    assert not out.exists()
    invoke_ok(runner, "compare", cdir, out, "--meta-k", "3")
    assert (out / "meta_clusters.tsv").read_text().splitlines()[-1] == "2020-03-03\t2"


def test_compare_puts_an_absent_label_in_the_group_of_absent_hashtags(tmp_path, runner):
    cdir = tmp_path / "clusters"
    cdir.mkdir()
    days = {
        "2020-03-01": {f"#h{i}": i // 6 for i in range(18)},
        "2020-03-02": {**{f"#h{i}": i % 3 for i in range(6, 24)},
                       **{f"#x{i}": DUMMY_LABEL for i in range(6)}},
        "2020-03-03": {f"#h{i}": DUMMY_LABEL if i < 12 else i // 6 for i in range(24)},
    }
    for day, labels in days.items():
        (cdir / f"{day}.tsv").write_text(
            "".join(f"{h}\t{l}\n" for h, l in sorted(labels.items())))
    out = tmp_path / "cmp"
    invoke_ok(runner, "compare", cdir, out, "--meta-k", "2")

    def oracle_tsv(dailies, path):
        leveled = cross_level([filter_small_clusters(c, 5) for c in dailies])
        write_ari_matrix(brute_ari_matrix(leveled), list(days), path)
        return path.read_bytes()

    read = [LabeledClustering.read_tsv(cdir / f"{day}.tsv", day) for day in days]
    assert (out / "ari_matrix.tsv").read_bytes() == oracle_tsv(read, tmp_path / "merged.tsv")
    # the label counts: as a label of its own it would give another matrix
    renamed = [LabeledClustering({h: "own" if l == DUMMY_LABEL else l
                                  for h, l in c.assignments.items()}, c.tag) for c in read]
    assert (out / "ari_matrix.tsv").read_bytes() != oracle_tsv(renamed, tmp_path / "own.tsv")


def test_compare_needs_two_clusterings(tmp_path, runner):
    cdir = tmp_path / "one"
    cdir.mkdir()
    (cdir / "2020-03-01.tsv").write_text("#a\t0\n")
    result = runner.invoke(main, ["compare", str(cdir), str(tmp_path / "o")])
    assert result.exit_code == 2


def test_analyze_reports(tmp_path, runner, corpus):
    clustering = tmp_path / "labels.tsv"
    posts = [json.loads(l) for l in corpus.read_text().strip().split("\n")]
    tags = sorted({h for p in posts for h in p["hashtags"]})
    clustering.write_text("".join(f"{h}\t{i % 2}\n" for i, h in enumerate(tags)))
    out = tmp_path / "reports"
    result = runner.invoke(main, ["analyze", str(corpus), str(clustering), str(out)])
    assert result.exit_code == 0, result.output
    header = (out / "clusters.tsv").read_text().split("\n")[0]
    assert header == "cluster\tsize\tunique_top_users\ttop_user_score"
    assert (out / "hashtags.tsv").is_file()
    assert (out / "tokens.tsv").is_file()


def test_report_requires_artifacts(tmp_path, runner):
    result = runner.invoke(main, ["report", str(tmp_path)])
    assert result.exit_code == 2


def test_pipeline_and_report(tmp_path, runner, corpus):
    cfg = tmp_path / "cfg.yaml"
    out = tmp_path / "run"
    cfg.write_text(f"input: {corpus}\noutput_dir: {out}\nmeta_k: 2\n")
    result = runner.invoke(main, ["pipeline", str(cfg)])
    assert result.exit_code == 0, result.output
    for name in (
        "daily_summary.tsv",
        "ari_matrix.tsv",
        "dendrogram.tsv",
        "meta_clusters.tsv",
        "period_summary.tsv",
    ):
        assert (out / name).is_file(), name
    report = runner.invoke(main, ["report", str(out)])
    assert report.exit_code == 0
    assert "Daily clusterings:" in report.output


def test_pipeline_set_override(tmp_path, runner, corpus):
    cfg = tmp_path / "cfg.yaml"
    out = tmp_path / "run"
    cfg.write_text(f"input: {corpus}\noutput_dir: {out}\n")
    # 1e-1 reaches the config as a string (YAML wants a dot) and still
    # parses; an integer key takes an integral float or a quoted integer
    result = runner.invoke(
        main,
        ["pipeline", str(cfg), "--set", "meta_k=1.0", "--set", 'seed="3"',
         "--set", "weight_tol=1e-1"],
    )
    assert result.exit_code == 0, result.output
    meta = (out / "meta_clusters.tsv").read_text().strip().split("\n")
    assert all(line.endswith("\t0") for line in meta)


def test_pipeline_missing_config_keys(tmp_path, runner):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("seed: 1\n")
    result = runner.invoke(main, ["pipeline", str(cfg)])
    assert result.exit_code == 2


@pytest.mark.parametrize(
    "override, message",
    [
        ("seed=abc", "config key seed: expected an integer >= 0, got 'abc'"),
        ("seed=3.5", "config key seed: expected an integer >= 0, got 3.5"),
        ("seed=true", "config key seed: expected an integer >= 0, got True"),
        ("resolution_tol=.inf", "config key resolution_tol"),
        ("idf=tf", "config key idf: expected one of ratio, log"),
        ("knn-k=3", "unknown config keys: knn-k (known keys: input, output_dir, seed,"),
        ("jobs=2", "unknown config keys: jobs"),
        ("seed=[1", "--set seed=[1: while parsing a flow sequence"),
    ],
)
def test_pipeline_bad_config_value_exits_2(tmp_path, runner, corpus, override, message):
    cfg = tmp_path / "cfg.yaml"
    out = tmp_path / "run"
    cfg.write_text(f"input: {corpus}\noutput_dir: {out}\n")
    result = runner.invoke(main, ["pipeline", str(cfg), "--set", override])
    assert result.exit_code == 2, result.output
    assert result.output.startswith("error: ")
    assert message in result.output
    assert not out.exists()


@pytest.mark.parametrize("content, message", [
    (b"input: [unclosed\n", "while parsing a flow sequence"),
    (b"input: posts\xff.jsonl\n", "not valid UTF-8 (invalid start byte)"),
])
def test_unreadable_config_exits_2(tmp_path, runner, content, message):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_bytes(content)
    result = runner.invoke(main, ["pipeline", str(cfg)])
    assert result.exit_code == 2, result.output
    assert result.output.startswith(f"error: config {cfg}: {message}")


def test_atomic_write_makes_missing_parents_and_refuses_a_file_parent(tmp_path):
    nested = tmp_path / "a" / "b" / "out.tsv"
    with atomic_write(nested) as tmp:
        tmp.write_text("x")
    assert nested.read_text() == "x"
    blocker = tmp_path / "file"
    blocker.write_text("")
    with pytest.raises(FileExistsError):
        with atomic_write(blocker / "out.tsv") as tmp:
            tmp.write_text("x")
    with pytest.raises(OSError):  # a file further up
        with atomic_write(blocker / "c" / "out.tsv") as tmp:
            tmp.write_text("x")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a", "file"]
    assert blocker.read_text() == ""


def test_atomic_write_leaves_no_stray_file(tmp_path):
    target = tmp_path / "out.tsv"
    with pytest.raises(RuntimeError):
        with atomic_write(target) as tmp:
            tmp.write_text("partial")
            raise RuntimeError("write failed")
    assert list(tmp_path.iterdir()) == []
    # the rename itself fails: the target is a non-empty directory
    busy = tmp_path / "busy"
    busy.mkdir()
    (busy / "keep").write_text("")
    with pytest.raises(OSError):
        with atomic_write(busy) as tmp:
            tmp.write_text("done")
    assert [p.name for p in tmp_path.iterdir()] == ["busy"]
    assert not list(tmp_path.rglob("*.tmp"))
    # library writers that raise partway, after their header is written
    lib = tmp_path / "lib"
    with pytest.raises(ValueError):
        write_dendrogram([(0, 0, 1, 0.5), (1, 2, 3, "high")], lib / "dendrogram.tsv")
    record = IterationRecord(1, [1.0], [1.0], "low", 1)
    with pytest.raises(ValueError):
        MvmcTrace([record]).write(lib / "trace.tsv")
    assert list(lib.iterdir()) == []


def test_pipeline_artifacts_hold_no_numpy_reprs(tmp_path, runner, corpus):
    out = tmp_path / "run"
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(f"input: {corpus}\noutput_dir: {out}\nmeta_k: 2\n")
    result = runner.invoke(main, ["pipeline", str(cfg)])
    assert result.exit_code == 0, result.output
    artifacts = tree_bytes(out)
    assert any(name.startswith("traces") for name in artifacts)
    assert [name for name, data in artifacts.items()
            if b"np." in data or b"float64" in data] == []


def test_pipeline_rerun_byte_identical(tmp_path, runner, corpus):
    cfg = tmp_path / "cfg.yaml"
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"run_{tag}"
        cfg.write_text(f"input: {corpus}\noutput_dir: {out}\nmeta_k: 2\n")
        result = runner.invoke(main, ["pipeline", str(cfg)])
        assert result.exit_code == 0, result.output
        outs.append(tree_bytes(out))
    assert outs[0] == outs[1]


def invoke_ok(runner, *args):
    result = runner.invoke(main, [str(a) for a in args])
    assert result.exit_code == 0, result.output
    return result


def test_single_stage_commands_reproduce_pipeline(tmp_path, runner, corpus):
    cfg = tmp_path / "cfg.yaml"
    run = tmp_path / "run"
    cfg.write_text(f"input: {corpus}\noutput_dir: {run}\nmeta_k: 2\n")
    invoke_ok(runner, "pipeline", cfg)

    stage = tmp_path / "stage"
    invoke_ok(runner, "ingest", corpus, stage / "views")
    days = sorted(d.name for d in (stage / "views").iterdir())
    (stage / "clusters").mkdir()
    (stage / "traces").mkdir()
    for day in days:
        day_out = tmp_path / "day" / day
        invoke_ok(runner, "cluster", stage / "views" / day, day_out)
        (day_out / "labels.tsv").rename(stage / "clusters" / f"{day}.tsv")
        (day_out / "trace.tsv").rename(stage / "traces" / f"{day}.tsv")
    invoke_ok(runner, "compare", stage / "clusters", stage, "--meta-k", "2")

    meta = (stage / "meta_clusters.tsv").read_text().splitlines()
    period_0 = [line.split("\t")[0] for line in meta if line.endswith("\t0")]
    assert len(period_0) == 2
    members = tmp_path / "period_0"
    members.mkdir()
    for day in period_0:
        (members / f"{day}.tsv").write_bytes((stage / "clusters" / f"{day}.tsv").read_bytes())
    consensus = stage / "consensus" / "period_0.tsv"
    invoke_ok(runner, "ensemble", members, consensus)

    posts = tmp_path / "period_0.jsonl"
    posts.write_text("".join(
        line for line in corpus.read_text().splitlines(keepends=True)
        if json.loads(line)["timestamp"][:10] in period_0
    ))
    reports = tmp_path / "reports"
    invoke_ok(runner, "analyze", posts, consensus, reports)
    (stage / "reports").mkdir()
    for path in reports.iterdir():
        path.rename(stage / "reports" / f"period_0_{path.name}")

    pipeline = tree_bytes(run)
    del pipeline["daily_summary.tsv"], pipeline["period_summary.tsv"]
    assert tree_bytes(stage) == pipeline


def test_pipeline_periods_match_ensemble_on_their_own_days(tmp_path, runner, corpus):
    # six days: the seed-7 corpus on March 1-3, and a seed-8 one on March 11-13
    # whose hashtags are all new, so no hashtag is used in both periods
    later = tmp_path / "later"
    invoke_ok(runner, "synth", "--mode", "corpus", "--seed", "8", later)
    churned = (later / "posts.jsonl").read_text().replace('"tag', '"new').replace("#tag", "#new")
    churned = churned.replace('"2020-03-0', '"2020-03-1').replace('id": "p', 'id": "q')
    result, run = run_pipeline_on(tmp_path, runner, "churn", corpus.read_text() + churned)
    assert result.exit_code == 0, result.output

    rows = (run / "period_summary.tsv").read_text().splitlines()[1:]
    periods = [row.split("\t")[:3] for row in rows if row.split("\t")[2] != "-"]
    assert periods
    for label, day_tags, clusters in periods:
        days = day_tags.split(",")
        members = tmp_path / f"period_{label}"
        members.mkdir()
        for day in days:
            (members / f"{day}.tsv").write_bytes((run / "clusters" / f"{day}.tsv").read_bytes())
        consensus = tmp_path / f"consensus_{label}.tsv"
        invoke_ok(runner, "ensemble", members, consensus)
        assert consensus.read_bytes() == (run / "consensus" / f"period_{label}.tsv").read_bytes()
        assert int(clusters) == len({line.split("\t")[1] for line in
                                     consensus.read_text().splitlines()})

        posts = tmp_path / f"period_{label}.jsonl"
        posts.write_text("".join(
            line for line in (tmp_path / "churn.jsonl").read_text().splitlines(keepends=True)
            if json.loads(line)["timestamp"][:10] in days
        ))
        reports = tmp_path / f"reports_{label}"
        invoke_ok(runner, "analyze", posts, consensus, reports)
        for path in reports.iterdir():
            pipeline = run / "reports" / f"period_{label}_{path.name}"
            assert path.read_bytes() == pipeline.read_bytes()
    check_internal_ari(run)
    check_report_sizes(run)


def test_pipeline_computes_each_ari_pair_once(tmp_path, runner, corpus, monkeypatch):
    # six days: the seed-7 corpus on March 1-3 and a seed-8 one on March 11-13
    later = tmp_path / "later"
    result = runner.invoke(main, ["synth", "--mode", "corpus", "--seed", "8", str(later)])
    assert result.exit_code == 0, result.output
    shifted = (later / "posts.jsonl").read_text()
    shifted = shifted.replace('"2020-03-0', '"2020-03-1').replace('id": "p', 'id": "q')
    pairs = []
    ari = compare._ari
    monkeypatch.setattr(compare, "_ari", lambda *sums: pairs.append(1) or ari(*sums))
    for meta_k in (1, 2):
        pairs.clear()
        result, out = run_pipeline_on(
            tmp_path, runner, f"six-{meta_k}", corpus.read_text() + shifted, meta_k
        )
        assert result.exit_code == 0, result.output
        assert len(pairs) == 6 * 5 // 2
        check_internal_ari(out)


def test_pipeline_filters_each_day_once(tmp_path, runner, corpus, monkeypatch):
    # the comparison and each period's consensus share one filtered list
    calls = []
    filter_once = cli.filter_small_clusters
    monkeypatch.setattr(cli, "filter_small_clusters",
                        lambda *args: calls.append(args[0].tag) or filter_once(*args))
    result, out = run_pipeline_on(tmp_path, runner, "once", corpus.read_text(), meta_k=2)
    assert result.exit_code == 0, result.output
    assert calls == sorted(p.stem for p in (out / "clusters").glob("*.tsv"))
    assert len(calls) == 3
    check_internal_ari(out)


def post_line(post_id, day, hashtags, text, user):
    return json.dumps({
        "post_id": post_id,
        "timestamp": f"{day}T12:00:00+00:00",
        "user_id": user,
        "text": text,
        "hashtags": hashtags,
        "urls": [],
    }) + "\n"


def test_pipeline_tokenises_each_post_once(tmp_path, runner, corpus, monkeypatch):
    # tagChurn: 2 posts on March 1, under the floor there, and 4 on March 2
    # next to group a's hashtags; both days form one period
    churn = "".join(
        [post_line(f"churn{i}", "2020-03-01", ["tagChurn"], "churning early", f"early{i}")
         for i in range(2)]
        + [post_line(f"churn{i}", "2020-03-02", ["tagChurn", "tagA0", "tagA1"],
                     "health masks vaccine", "user_a1") for i in range(2, 6)]
    )
    posts_text = corpus.read_text() + churn
    # on the per-line reader each text reaches `preprocess_text` once; the
    # compiled reader tokenises the (ASCII) texts itself
    calls, reader, tokenise = [], _kernels.read_records, ingest.preprocess_text
    monkeypatch.setattr(ingest, "preprocess_text",
                        lambda text: calls.append(text) or tokenise(text))
    monkeypatch.setattr(_kernels, "read_records", None)
    result, out = run_pipeline_on(tmp_path, runner, "churn", posts_text)
    assert result.exit_code == 0, result.output
    assert len(calls) == len(posts_text.splitlines())
    if reader is not None:
        calls.clear()
        monkeypatch.setattr(_kernels, "read_records", reader)
        result, compiled = run_pipeline_on(tmp_path, runner, "compiled", posts_text)
        assert result.exit_code == 0, result.output
        assert calls == [] and tree_bytes(compiled) == tree_bytes(out)

    meta_rows = (out / "meta_clusters.tsv").read_text().splitlines()
    meta = dict(line.split("\t") for line in meta_rows)
    label = meta["2020-03-01"]
    assert meta["2020-03-02"] == label
    period = [day for day, lab in meta.items() if lab == label]
    reports = out / "reports"
    assert "tagChurn\t6.0\t" in (reports / f"period_{label}_hashtags.tsv").read_text()

    period_posts = tmp_path / "period.jsonl"
    period_posts.write_text("".join(
        line for line in posts_text.splitlines(keepends=True)
        if json.loads(line)["timestamp"][:10] in period
    ))
    analyzed = tmp_path / "analyzed"
    invoke_ok(runner, "analyze", period_posts, out / "consensus" / f"period_{label}.tsv", analyzed)
    for name in ("clusters.tsv", "hashtags.tsv", "tokens.tsv"):
        assert (analyzed / name).read_bytes() == (reports / f"period_{label}_{name}").read_bytes()


def load_bench_corpus():
    """bench/corpus.py, the benchmark's corpus generator, loaded by path."""
    path = Path(__file__).resolve().parents[1] / "bench" / "corpus.py"
    spec = importlib.util.spec_from_file_location("bench_corpus", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [1, 3])
def test_pipeline_recovers_the_planted_periods_without_churn(tmp_path, runner, seed):
    """With no hashtag churn the meta-clusters are exactly the generator's
    planted periods: 9 days in 3 periods, 4 groups of 8 hashtags."""
    corpus = load_bench_corpus()
    spec = corpus.CorpusSpec(groups=4, tags_per_group=8, days=9, posts_per_day=150,
                             words_per_post=20, churn=0.0, periods=3)
    posts, _truth = corpus.generate(spec, seed)
    corpus.write_jsonl(posts, tmp_path / "posts.jsonl")
    (tmp_path / "run.yaml").write_text(f"input: {tmp_path / 'posts.jsonl'}\n"
                                       f"output_dir: {tmp_path / 'out'}\n"
                                       "meta_k: 3\nmin_cluster_size: 3\n")
    invoke_ok(runner, "pipeline", tmp_path / "run.yaml")
    meta = dict(line.split("\t") for line in
                (tmp_path / "out" / "meta_clusters.tsv").read_text().splitlines())
    planted = {corpus.day_label(day): day * spec.periods // spec.days for day in range(spec.days)}
    assert meta.keys() == planted.keys()

    def groups(labels):
        return {frozenset(d for d in labels if labels[d] == label) for label in labels.values()}

    assert groups(meta) == groups(planted)


def test_pipeline_calls_every_benchmark_hook(tmp_path, runner, corpus, monkeypatch):
    """Each `mvmc.cli` name that the benchmark's tracer spans or checkpoints
    hook is still a global there that `pipeline` calls, so a refactor cannot
    drop a span or a checkpoint without a word."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import tracer
    import workload

    hooked = {path for module, path, *_ in tracer.HOOKS + workload.CHECKPOINTS
              if module == "mvmc.cli"}
    # no stage calls cross_level since the comparison works on incidences;
    # the benchmark still hooks it, so its metric reads 0
    hooked.remove("cross_level")
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in hooked:
        monkeypatch.setattr(cli, name, counted(name, getattr(cli, name)))
    result, _out = run_pipeline_on(tmp_path, runner, "hooked", corpus.read_text(), meta_k=2)
    assert result.exit_code == 0, result.output
    assert hooked == {"read_posts", "build_daily_views", "tfidf", "knn_graph", "run_mvmc",
                      "pairwise_ari_matrix", "average_linkage_merges", "ensemble_cluster"}
    assert {name for name in hooked if calls[name] == 0} == set()
    assert (calls["read_posts"], calls["build_daily_views"]) == (1, 3)


def test_pipeline_artifacts_are_utf8_in_an_ascii_locale(tmp_path, corpus):
    records = [json.loads(line) for line in corpus.read_text().splitlines()]
    posts = tmp_path / "posts.jsonl"
    posts.write_text("".join(
        json.dumps({**r, "text": "café Été " + r["text"],
                    "hashtags": [h.replace("tagA", "tagÉ") for h in r["hashtags"]]},
                   ensure_ascii=False) + "\n"
        for r in records
    ), encoding="utf-8")
    trees = []
    for utf8 in ("0", "1"):
        out = tmp_path / f"utf8_{utf8}"
        cfg = tmp_path / f"utf8_{utf8}.yaml"
        cfg.write_text(f"input: {posts}\noutput_dir: {out}\nmeta_k: 2\n")
        env = {**os.environ, "PYTHONPATH": str(Path(mvmc.__file__).parents[1]),
               "PYTHONUTF8": utf8, "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C"}
        proc = subprocess.run(
            [sys.executable, "-X", f"utf8={utf8}", "-c", "from mvmc.cli import main; main()",
             "pipeline", str(cfg)],
            env=env, capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr.decode(errors="replace")
        trees.append(tree_bytes(out))
    assert trees[0] == trees[1]
    assert "tagÉ0\n".encode() in trees[0]["views/2020-03-01/registry.tsv"]
    assert "\tcafé\t".encode() in trees[0]["reports/period_0_tokens.tsv"]


def check_internal_ari(out):
    """Each period's avg_internal_ari is average_internal_ari of its days."""
    days = sorted((out / "clusters").glob("*.tsv"))
    leveled = cross_level([
        filter_small_clusters(LabeledClustering.read_tsv(f, f.stem), 5) for f in days
    ])
    by_tag = {c.tag: c for c in leveled}
    rows = (out / "period_summary.tsv").read_text().splitlines()[1:]
    periods = [row.split("\t") for row in rows if row.split("\t")[-1] != "-"]
    assert periods
    for _label, day_tags, *_sizes, value in periods:
        members = [by_tag[tag] for tag in day_tags.split(",")]
        assert value == f"{average_internal_ari(members):.4f}"


def quiet_posts(day: str, hashtags: list, count: int) -> str:
    return "".join(
        json.dumps({
            "post_id": f"quiet-{day}-{i}",
            "timestamp": f"{day}T12:00:00+00:00",
            "user_id": f"quiet_user{i}",
            "text": "nothing much",
            "hashtags": hashtags,
            "urls": [],
        }) + "\n"
        for i in range(count)
    )


def run_pipeline_on(tmp_path, runner, name, posts_text, meta_k=2, overrides=(), suffix=".jsonl"):
    posts = tmp_path / f"{name}{suffix}"
    posts.write_text(posts_text)
    cfg = tmp_path / f"{name}.yaml"
    out = tmp_path / name
    cfg.write_text(f"input: {posts}\noutput_dir: {out}\nmeta_k: {meta_k}\n")
    sets = [arg for item in overrides for arg in ("--set", item)]
    return runner.invoke(main, ["pipeline", str(cfg), *sets]), out


def test_json_and_tsv_copies_of_a_corpus_give_the_same_artifacts(tmp_path, runner, corpus):
    # three posts with an empty URL: `"urls": [""]` in the JSON copy, an
    # empty URL column in the TSV copy; neither is a URL named ""
    extra = [post_line(f"empty{i}", "2020-03-01", ["tagA0", "tagA1"], "health masks",
                       "user_a1").replace('"urls": []', '"urls": [""]') for i in range(3)]
    records = [json.loads(line) for line in corpus.read_text().splitlines() + extra]
    assert [r["urls"] for r in records[-3:]] == [[""]] * 3
    tsv = "".join(
        "\t".join([r["post_id"], r["timestamp"], r["user_id"], r["text"],
                   ",".join(r["hashtags"]), ",".join(r["urls"])]) + "\n"
        for r in records
    )
    json_result, json_out = run_pipeline_on(tmp_path, runner, "json",
                                            corpus.read_text() + "".join(extra))
    tsv_result, tsv_out = run_pipeline_on(tmp_path, runner, "tsv", tsv, suffix=".tsv")
    assert json_result.exit_code == 0, json_result.output
    assert tsv_result.exit_code == 0, tsv_result.output
    assert {p.name for p in json_out.iterdir()} >= {"views", "clusters", "reports"}
    assert tree_bytes(json_out) == tree_bytes(tsv_out)


def check_report_sizes(out) -> Counter:
    """Each period report row's size is the member count of its cluster's
    label in the period's consensus; returns the last period's counts."""
    for consensus in sorted((out / "consensus").glob("period_*.tsv")):
        members = Counter(line.split("\t")[1] for line in consensus.read_text().splitlines())
        rows = (out / "reports" / f"{consensus.stem}_clusters.tsv").read_text().splitlines()
        assert {row.split("\t")[0]: int(row.split("\t")[1]) for row in rows[1:]} == members
    return members


def test_pipeline_reports_use_the_consensus_labels(tmp_path, runner):
    # two days of 12 groups that share no user, word or post: group g has
    # g + 2 hashtags, each in the group's 3 posts, so every period cluster
    # has its own size and labels run past 10
    words = "alpha bravo charlie delta echo foxtrot golf hotel india juliet kilo lima".split()
    posts = "".join(
        post_line(f"{day}-{g}-{i}", day, [f"g{words[g]}{t}" for t in range(g + 2)],
                  f"{words[g]} {words[g]}news", f"user_{words[g]}{i}")
        for day in ("2020-03-01", "2020-03-02") for g in range(12) for i in range(3)
    )
    result, out = run_pipeline_on(tmp_path, runner, "groups", posts, meta_k=1,
                                  overrides=["min_cluster_size=2"])
    assert result.exit_code == 0, result.output
    assert sorted(check_report_sizes(out).values()) == list(range(2, 14))


def test_pipeline_skips_quiet_days(tmp_path, runner, corpus):
    # 2020-03-04: its one hashtag is in 2 posts; 2020-03-05: one hashtag left;
    # 2020-02-29, before the corpus and last in the file: one hashtag in 2 posts
    quiet = quiet_posts("2020-03-04", ["#rare"], 2) + quiet_posts(
        "2020-03-05", ["#lone"], 3
    ) + quiet_posts("2020-03-05", ["#rare"], 2) + quiet_posts("2020-02-29", ["#leap"], 2)
    plain, plain_out = run_pipeline_on(tmp_path, runner, "plain", corpus.read_text())
    mixed, mixed_out = run_pipeline_on(tmp_path, runner, "mixed", corpus.read_text() + quiet)
    assert plain.exit_code == 0, plain.output
    assert mixed.exit_code == 0, mixed.output
    # one warning per quiet day, in date order
    assert [line for line in mixed.stderr.splitlines() if line.startswith("warning:")] == [
        "warning: 2020-02-29 skipped: 0 hashtag(s) in 3 or more posts, need 2",
        "warning: 2020-03-04 skipped: 0 hashtag(s) in 3 or more posts, need 2",
        "warning: 2020-03-05 skipped: 1 hashtag(s) in 3 or more posts, need 2",
    ]
    # no views, clusters, trace or summary row for a skipped day
    assert tree_bytes(mixed_out) == tree_bytes(plain_out)


def test_pipeline_writes_no_day_when_its_last_day_fails(tmp_path, runner, corpus, monkeypatch):
    """Every kept day is clustered before any day's file is written."""
    real, calls = cli.run_mvmc, []

    def fails_on_the_third_day(graphs, cfg):
        calls.append(cfg)
        if len(calls) == 3:
            raise GraphUsageError("planted failure")
        return real(graphs, cfg)

    monkeypatch.setattr(cli, "run_mvmc", fails_on_the_third_day)
    result, out = run_pipeline_on(tmp_path, runner, "failing", corpus.read_text())
    assert result.exit_code == 2, result.output
    assert "error: planted failure" in result.output
    assert len(calls) == 3
    assert list(out.iterdir()) == []


def test_pipeline_skips_days_with_at_most_knn_k_hashtags(tmp_path, runner, corpus):
    # the corpus has 18 hashtags a day; 2020-03-04 has 5, in 3 posts each
    few = quiet_posts("2020-03-04", [f"#few{i}" for i in range(5)], 3)
    plain, plain_out = run_pipeline_on(tmp_path, runner, "plain", corpus.read_text(),
                                       overrides=["knn_k=5"])
    mixed, mixed_out = run_pipeline_on(tmp_path, runner, "mixed", corpus.read_text() + few,
                                       overrides=["knn_k=5"])
    assert plain.exit_code == 0, plain.output
    assert mixed.exit_code == 0, mixed.output
    assert "warning: 2020-03-04 skipped: 5 hashtag(s) in 3 or more posts, need 6" in mixed.stderr
    assert len(list((mixed_out / "clusters").iterdir())) == 3
    assert tree_bytes(mixed_out) == tree_bytes(plain_out)
    result, _out = run_pipeline_on(tmp_path, runner, "all", corpus.read_text(),
                                   overrides=["knn_k=18"])
    assert result.exit_code == 2, result.output
    assert "error: no day has 19 hashtags in 3 or more posts" in result.output


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_pipeline_period_without_clusters(tmp_path, runner, corpus):
    # no cluster of the corpus reaches 50 hashtags, so every period's
    # consensus is empty
    result, out = run_pipeline_on(tmp_path, runner, "empty", corpus.read_text(),
                                  overrides=["min_cluster_size=50"])
    assert result.exit_code == 0, result.output
    rows = (out / "period_summary.tsv").read_text().splitlines()
    assert rows[1] == "0\t2020-03-01,2020-03-02\t0\t-\t-\t1.0000"
    assert (out / "reports" / "period_0_clusters.tsv").read_text().splitlines()[1:] == []


def test_pipeline_quiet_days_leave_one_or_no_day(tmp_path, runner, corpus):
    first_day = "".join(
        line for line in corpus.read_text().splitlines(keepends=True)
        if '"2020-03-01' in line
    )
    quiet = quiet_posts("2020-03-04", ["#rare"], 2)
    result, out = run_pipeline_on(tmp_path, runner, "one", first_day + quiet)
    assert result.exit_code == 0, result.output
    assert "single day: skipping temporal comparison" in result.output
    assert sorted(p.name for p in (out / "clusters").iterdir()) == ["2020-03-01.tsv"]
    result, out = run_pipeline_on(tmp_path, runner, "none", quiet)
    assert result.exit_code == 2, result.output
    assert "error: no day has 2 hashtags in 3 or more posts" in result.output


@pytest.mark.parametrize(
    "command, option, value",
    [
        ("cluster", "--max-iter", "0"),
        ("cluster", "--seed", "-1"),
        ("cluster", "--resolution-tol", "-1"),
        ("analyze", "--fraction", "2"),
        ("analyze", "--top-tokens", "-1"),
        ("compare", "--min-cluster-size", "0"),
        ("synth", "--seed", "-1"),
        ("synth", "--posts-per-day", "-3"),
        ("synth", "--noise-views", "-1"),
    ],
)
def test_bad_option_value_exits_2(tmp_path, runner, corpus, command, option, value):
    views = tmp_path / "views"
    invoke_ok(runner, "ingest", corpus, views)
    clusters = tmp_path / "clusters"
    clusters.mkdir()
    for day in ("2020-03-01", "2020-03-02"):
        (clusters / f"{day}.tsv").write_text("#a\t0\n#b\t0\n")
    out = tmp_path / "out"
    positional = {
        "cluster": [views / "2020-03-01", out],
        "analyze": [corpus, clusters / "2020-03-01.tsv", out],
        "compare": [clusters, out],
        "synth": [out],
    }[command]
    result = runner.invoke(main, [command, option, value, *map(str, positional)])
    assert result.exit_code == 2, result.output
    assert f"Invalid value for '{option}'" in result.output
    assert "Traceback" not in result.output
    assert not out.exists()


@pytest.mark.parametrize(
    "mode, option, value, other",
    [
        ("corpus", "--blocks", "0", "graphs"),
        ("corpus", "--n", "5", "graphs"),
        ("corpus", "--views", "2", "graphs"),
        ("corpus", "--noise-views", "1", "graphs"),
        ("corpus", "--p-in", "0.4", "graphs"),
        ("corpus", "--p-out", "0.1", "graphs"),
        ("graphs", "--posts-per-day", "5", "corpus"),
    ],
)
def test_synth_option_of_the_other_mode_exits_2(tmp_path, runner, mode, option, value, other):
    # `--views 2` is the graphs default: given on the command line, it still counts
    out = tmp_path / "out"
    result = runner.invoke(main, ["synth", "--mode", mode, option, value, str(out)])
    assert result.exit_code == 2, result.output
    assert f"error: {option} applies only to --mode {other}" in result.output
    assert "Traceback" not in result.output
    assert not out.exists()


def test_malformed_clustering_tsv_exits_2(tmp_path, runner, corpus):
    clusters = tmp_path / "clusters"
    clusters.mkdir()
    (clusters / "2020-03-01.tsv").write_text("#a\t0\n#b\t0\n")
    (clusters / "2020-03-02.tsv").write_text("#a\t0\n#b 0\n")
    bad = clusters / "2020-03-02.tsv"
    for args in (
        ["compare", clusters, tmp_path / "cmp", "--meta-k", "1"],
        ["ensemble", clusters, tmp_path / "consensus.tsv"],
        ["analyze", corpus, bad, tmp_path / "reports"],
    ):
        result = runner.invoke(main, [str(a) for a in args])
        assert result.exit_code == 2, result.output
        assert result.output.startswith(f"error: {bad}:2: expected object<TAB>label")


def test_clustering_tsv_listing_an_object_twice_exits_2(tmp_path, runner):
    clusters = tmp_path / "clusters"
    clusters.mkdir()
    (clusters / "2020-03-01.tsv").write_text("a\t0\nb\t1\n")
    bad = clusters / "2020-03-02.tsv"
    bad.write_text("a\t0\nb\t0\na\t1\n")
    result = runner.invoke(main, ["compare", str(clusters), str(tmp_path / "cmp"),
                                  "--meta-k", "1"])
    assert result.exit_code == 2, result.output
    assert result.output == f"error: {bad}:3: object 'a' listed twice\n"
    assert not (tmp_path / "cmp").exists()


def test_clustering_tsv_that_is_not_utf8_exits_2(tmp_path, runner, corpus):
    clusters = tmp_path / "clusters"
    clusters.mkdir()
    (clusters / "2020-03-01.tsv").write_text("#a\t0\n#b\t0\n")
    bad = clusters / "2020-03-02.tsv"
    bad.write_bytes(b"#a\t0\n#b\xff\t0\n")
    for args in (
        ["compare", clusters, tmp_path / "cmp", "--meta-k", "1"],
        ["ensemble", clusters, tmp_path / "consensus.tsv"],
        ["analyze", corpus, bad, tmp_path / "reports"],
    ):
        result = runner.invoke(main, [str(a) for a in args])
        assert result.exit_code == 2, result.output
        assert result.output.startswith(f"error: {bad}: not valid UTF-8 (invalid start byte)")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["clusters", "synth"]


@pytest.mark.parametrize("name", ["registry.tsv", "text.triplets", "cooccur.triplets"])
def test_day_view_file_that_is_not_utf8_exits_2(tmp_path, runner, corpus, name):
    views = tmp_path / "views"
    invoke_ok(runner, "ingest", corpus, views)
    bad = views / "2020-03-01" / name
    bad.write_bytes(bad.read_bytes() + b"\xff\n")
    result = runner.invoke(main, ["cluster", str(views / "2020-03-01"), str(tmp_path / "c")])
    assert result.exit_code == 2, result.output
    assert result.output.startswith(f"error: {bad}: not valid UTF-8 (invalid start byte)")
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("line, message", [
    ("tagA0\thealth\t1.0\textra", "expected row<TAB>col<TAB>count, got 4 field(s)"),
    ("tagA0 health 1.0", "expected row<TAB>col<TAB>count, got 1 field(s)"),
    ("tagA0\thealth\tmany", "expected row<TAB>col<TAB>count, got count 'many'"),
    ("tagA0\thealth\tnan", "expected row<TAB>col<TAB>count, got count 'nan'"),
    ("tagA0\thealth\t-1.0", "expected row<TAB>col<TAB>count, got count '-1.0'"),
    ("tagA0\thealth\tinf", "expected row<TAB>col<TAB>count, got count 'inf'"),
    ("tagZ9\thealth\t1.0", "unknown row 'tagZ9'"),
])
def test_malformed_triplets_line_exits_2(tmp_path, runner, corpus, line, message):
    views = tmp_path / "views"
    invoke_ok(runner, "ingest", corpus, views)
    text = views / "2020-03-01" / "text.triplets"
    lines = text.read_text().splitlines()
    text.write_text("\n".join(lines[:2] + [line] + lines[2:]) + "\n")
    result = runner.invoke(main, ["cluster", str(views / "2020-03-01"), str(tmp_path / "c")])
    assert result.exit_code == 2, result.output
    assert result.output == f"error: {text}:3: {message}\n"


def test_registry_listing_a_hashtag_twice_exits_2(tmp_path, runner, corpus):
    views = tmp_path / "views"
    invoke_ok(runner, "ingest", corpus, views)
    registry = views / "2020-03-01" / "registry.tsv"
    lines = registry.read_text().splitlines(keepends=True)
    registry.write_text("".join(lines + lines[:1]))
    result = runner.invoke(main, ["cluster", str(views / "2020-03-01"), str(tmp_path / "c")])
    assert result.exit_code == 2, result.output
    assert result.output == f"error: {registry}:19: hashtag 'tagC2' listed twice\n"
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("name", ["registry.tsv", "text.triplets", "cooccur.triplets"])
def test_missing_day_view_file_exits_2(tmp_path, runner, corpus, name):
    views = tmp_path / "views"
    invoke_ok(runner, "ingest", corpus, views)
    missing = views / "2020-03-01" / name
    missing.unlink()
    result = runner.invoke(main, ["cluster", str(views / "2020-03-01"), str(tmp_path / "c")])
    assert result.exit_code == 2, result.output
    assert result.output == f"error: {missing}: No such file or directory\n"
    assert not (tmp_path / "c").exists()


def test_missing_clustering_exits_2(tmp_path, runner, corpus):
    missing = tmp_path / "nope.tsv"
    result = runner.invoke(main, ["analyze", str(corpus), str(missing), str(tmp_path / "r")])
    assert result.exit_code == 2, result.output
    assert result.output == f"error: {missing}: No such file or directory\n"
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("name", ["daily_summary.tsv", "period_summary.tsv",
                                  "reports/period_0_clusters.tsv"])
def test_report_table_that_is_not_utf8_exits_2(tmp_path, runner, name):
    for table in ("daily_summary.tsv", "period_summary.tsv", "reports/period_0_clusters.tsv"):
        (tmp_path / table).parent.mkdir(exist_ok=True)
        (tmp_path / table).write_text("a\tb\n1\t2\n")
    bad = tmp_path / name
    bad.write_bytes(b"a\tb\n1\t\xff\n")
    result = runner.invoke(main, ["report", str(tmp_path)])
    assert result.exit_code == 2, result.output
    assert result.output.endswith(f"error: {bad}: not valid UTF-8 (invalid start byte)\n")


def test_report_table_that_cannot_be_opened_exits_2(tmp_path, runner):
    (tmp_path / "daily_summary.tsv").write_text("a\tb\n1\t2\n")
    bad = tmp_path / "reports" / "x_clusters.tsv"
    bad.mkdir(parents=True)
    result = runner.invoke(main, ["report", str(tmp_path)])
    assert result.exit_code == 2, result.output
    assert result.output.endswith(f"Cluster report x_clusters:\nerror: {bad}: Is a directory\n")


def test_names_with_tabs_or_line_breaks_are_skipped(tmp_path, runner, corpus):
    bad = [post_line(f"tab{i}", "2020-03-01", ["a\tb", "tagA0"], "health masks", "user_a1")
           for i in range(6)]
    bad.append(post_line("nl", "2020-03-01", ["tagA0"], "health", "user\nx"))
    bad.append(json.dumps({"post_id": "cr", "timestamp": "2020-03-01T12:00:00+00:00",
                           "user_id": "user_a1", "text": "masks", "hashtags": ["tagA0"],
                           "urls": ["https://example.org/\r"]}) + "\n")
    # fields of the wrong JSON type, each in 3 posts so that a hashtag
    # among them would pass the frequency floor
    mistyped = [
        ("hashtags", [["tagA0"]], "hashtags is not an array of non-empty strings"),
        ("urls", [["https://example.org/"]], "urls is not an array of strings"),
        ("hashtags", [1, "tagA0"], "hashtags is not an array of non-empty strings"),
        ("timestamp", 1583020800, "timestamp 1583020800 is not a string"),
        ("hashtags", "xyz", "hashtags is not an array of non-empty strings"),
        ("hashtags", ["", "tagA0"], "hashtags is not an array of non-empty strings"),
        ("post_id", None, "post_id is null"),
        ("user_id", None, "user_id is null"),
        ("text", None, "text is null"),
    ]
    for field, value, _message in mistyped:
        for i in range(3):
            record = json.loads(post_line(f"{field}{i}", "2020-03-01", ["tagA0"], "health",
                                          "user_a1"))
            bad.append(json.dumps({**record, field: value}) + "\n")
    posts = tmp_path / "posts.jsonl"
    posts.write_text(corpus.read_text() + "".join(bad))
    plain, views = tmp_path / "plain", tmp_path / "views"
    invoke_ok(runner, "ingest", corpus, plain)
    result = runner.invoke(main, ["ingest", str(posts), str(views)])
    assert result.exit_code == 0, result.output
    first = len(corpus.read_text().splitlines()) + 1
    names = ["a\tb"] * 6 + ["user\nx", "https://example.org/\r"]
    for lineno, name in enumerate(names, first):
        assert f"warning: line {lineno} skipped: tab or line break in {name!r}" in result.stderr
    for lineno, (_field, _value, message) in enumerate(
            [m for m in mistyped for _ in range(3)], first + len(names)):
        assert f"warning: line {lineno} skipped: bad record: {message}" in result.stderr
    assert tree_bytes(views) == tree_bytes(plain)
    invoke_ok(runner, "cluster", views / "2020-03-01", tmp_path / "c")
    result, out = run_pipeline_on(tmp_path, runner, "run", posts.read_text())
    assert result.exit_code == 0, result.output
    assert tree_bytes(out / "views") == tree_bytes(plain)


def test_ingest_by_domain_counts_a_url_that_does_not_parse_as_itself(tmp_path, runner):
    # urlparse raises on an unclosed IPv6 bracket; such a URL is its own
    # domain, as a URL without a host is
    urls = ["http://[::1", "http://news.example/a", "news", "http://[::1"]
    posts = tmp_path / "posts.jsonl"
    posts.write_text("".join(
        json.dumps({**json.loads(post_line(str(i), "2020-03-01", ["#a"], "", "u")), "urls": [url]})
        + "\n" for i, url in enumerate(urls)))
    out = tmp_path / "views"
    invoke_ok(runner, "ingest", "--url-mode", "domain", posts, out)
    assert (out / "2020-03-01" / "url.triplets").read_text() == (
        "#a\thttp://[::1\t2.0\n#a\tnews.example\t1.0\n#a\tnews\t1.0\n")


def test_importing_the_cli_loads_no_heavy_scipy_subpackage():
    # measured on `import mvmc.cli` (52.5 MB peak RSS): scipy.sparse.csgraph
    # adds 10.5 MB and scipy.cluster.hierarchy 16 MB, a fifth of a small run
    code = (
        "import sys, mvmc.cli;"
        "print(*sorted(m for m in sys.modules if m.startswith("
        "('scipy.sparse.csgraph', 'scipy.cluster', 'scipy.spatial'))))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(mvmc.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout.split() == []


def test_the_clusterer_runs_without_scipy_sparse_and_the_views_load_it(tmp_path):
    # scipy.sparse was ~110 ms of a 174 ms `import mvmc`; numpy.ma ~9 ms
    code = """
import sys, mvmc, mvmc.cli
from mvmc import (LabeledClustering, MvmcConfig, ViewGraph, ViewMatrix,
                  average_linkage_merges, ensemble_cluster, knn_graph, maximize,
                  pairwise_ari_matrix, run_mvmc, tfidf)
from mvmc.analytics import usage_tables
from mvmc.ingest import build_daily_views, read_posts
from mvmc.synth import planted_partition_views

def loaded():
    return sorted(m for m in sys.modules
                  if m == "numpy.ma" or m.startswith(("numpy.ma.", "scipy.sparse")))

print(mvmc._kernels.BACKEND)
maximize([ViewGraph.from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)])])
run_mvmc(planted_partition_views(12, 2, 0.6, 0.1)[0], MvmcConfig(max_iter=3))
days = [LabeledClustering(dict(zip(objects, labels))) for objects, labels in
        (("abcd", [0, 0, 1, 1]), ("abcd", [0, 1, 1, 1]), ("cdef", [0, 0, 1, 1]))]
average_linkage_merges(1.0 - pairwise_ari_matrix(days))
ensemble_cluster(days)
# a real day, read and coded by `code_posts`, and its period report tables
((day, posts),) = read_posts(sys.argv[1]).items()
daily = build_daily_views(posts, day)
usage_tables([daily.codes, daily.codes], {0: ["#a"], 1: ["#b", "#c"]})
print(*loaded() or ["-"])
for i, built in enumerate(daily.as_list()):
    built.write_triplets(f"{sys.argv[2]}/{i}.triplets")
view = tfidf(ViewMatrix.read_triplets(f"{sys.argv[2]}/0.triplets"))
knn_graph(view, 1)
print(*loaded() or ["-"])
view.counts
print("scipy.sparse" in loaded())
"""
    posts = tmp_path / "posts.jsonl"
    posts.write_text("".join(
        post_line(str(i), "2020-03-01", [tag], f"stay home {tag[1]} {i % 2}", f"u{i % 3}")
        for i, tag in enumerate(["#a", "#b", "#c"] * 3)))
    env = {**os.environ, "PYTHONPATH": str(Path(mvmc.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code, str(posts), str(tmp_path)], env=env,
                          capture_output=True, text=True, check=True)
    backend, before, views, after = proc.stdout.splitlines()
    if backend != "c":
        pytest.skip("the Python reference kernels use scipy.sparse")
    assert (before, views, after) == ("-", "-", "True")
    assert sorted(p.name for p in tmp_path.glob("*.triplets")) == [
        f"{i}.triplets" for i in range(4)]


@pytest.mark.skipif(mvmc._kernels.BACKEND != "c", reason="the compiled kernel did not load")
def test_pipeline_without_a_compiler_writes_the_compiled_bytes(tmp_path, runner, corpus):
    """A run with no compiler on PATH and an empty build cache uses the Python
    references, the line-by-line reader included, and every artifact it
    writes is the compiled run's, from the .jsonl corpus and from its .tsv
    copy."""
    tsv = tmp_path / "posts.tsv"
    tsv.write_text("".join(
        "\t".join([r["post_id"], r["timestamp"], r["user_id"], r["text"],
                   ",".join(r["hashtags"]), ",".join(r["urls"])]) + "\n"
        for r in map(json.loads, corpus.read_text().splitlines())))
    (tmp_path / "bin").mkdir()
    env = {**os.environ, "PYTHONPATH": str(Path(mvmc.__file__).parents[1]),
           "PATH": str(tmp_path / "bin"), "XDG_CACHE_HOME": str(tmp_path / "cache")}
    for posts in (corpus, tsv):
        out = tmp_path / posts.suffix[1:]
        for backend in ("c", "python"):
            (tmp_path / f"{backend}.yaml").write_text(
                f"input: {posts}\noutput_dir: {out / backend}\nmeta_k: 2\n")
        invoke_ok(runner, "pipeline", tmp_path / "c.yaml")
        proc = subprocess.run(
            [sys.executable, "-c", "from mvmc import _kernels; from mvmc.cli import main;"
             " print(_kernels.BACKEND, _kernels.read_records); main()",
             "pipeline", str(tmp_path / "python.yaml")],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[0] == "python None"
        compiled = tree_bytes(out / "c")
        assert "reports/period_0_tokens.tsv" in compiled
        assert tree_bytes(out / "python") == compiled
