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
