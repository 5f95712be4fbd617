import json
import os
from pathlib import Path

import pytest
from click.testing import CliRunner

from mvmc.cli import atomic_write, main


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


def run_pipeline_on(tmp_path, runner, name, posts_text):
    posts = tmp_path / f"{name}.jsonl"
    posts.write_text(posts_text)
    cfg = tmp_path / f"{name}.yaml"
    out = tmp_path / name
    cfg.write_text(f"input: {posts}\noutput_dir: {out}\nmeta_k: 2\n")
    return runner.invoke(main, ["pipeline", str(cfg)]), out


def test_pipeline_skips_quiet_days(tmp_path, runner, corpus):
    # 2020-03-04: its one hashtag is in 2 posts; 2020-03-05: one hashtag left
    quiet = quiet_posts("2020-03-04", ["#rare"], 2) + quiet_posts(
        "2020-03-05", ["#lone"], 3
    ) + quiet_posts("2020-03-05", ["#rare"], 2)
    plain, plain_out = run_pipeline_on(tmp_path, runner, "plain", corpus.read_text())
    mixed, mixed_out = run_pipeline_on(tmp_path, runner, "mixed", corpus.read_text() + quiet)
    assert plain.exit_code == 0, plain.output
    assert mixed.exit_code == 0, mixed.output
    assert "warning: 2020-03-04 skipped: 0 hashtag(s) in 3 or more posts, need 2" in mixed.stderr
    assert "warning: 2020-03-05 skipped: 1 hashtag(s) in 3 or more posts, need 2" in mixed.stderr
    # no views, clusters, trace or summary row for a skipped day
    assert tree_bytes(mixed_out) == tree_bytes(plain_out)


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
