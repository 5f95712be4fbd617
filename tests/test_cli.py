import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from click.testing import CliRunner

import mvmc
from mvmc import compare, ingest
from mvmc.cli import atomic_write, main
from mvmc.compare import DUMMY_LABEL, LabeledClustering, cross_level, write_ari_matrix
from mvmc.ensemble import average_internal_ari, filter_small_clusters
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
    calls = []
    tokenise = ingest.preprocess_text

    def counting(text):
        calls.append(text)
        return tokenise(text)

    monkeypatch.setattr(ingest, "preprocess_text", counting)
    result, out = run_pipeline_on(tmp_path, runner, "churn", posts_text)
    assert result.exit_code == 0, result.output
    assert len(calls) == len(posts_text.splitlines())

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


@pytest.mark.parametrize("line, message", [
    ("tagA0\thealth\t1.0\textra", "expected row<TAB>col<TAB>count, got 4 field(s)"),
    ("tagA0 health 1.0", "expected row<TAB>col<TAB>count, got 1 field(s)"),
    ("tagA0\thealth\tmany", "expected row<TAB>col<TAB>count, got count 'many'"),
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


def test_the_clusterer_runs_without_scipy_sparse_and_the_views_load_it():
    # scipy.sparse was ~110 ms of a 174 ms `import mvmc`; numpy.ma ~9 ms
    code = """
import sys, mvmc, mvmc.cli
from mvmc import (LabeledClustering, MvmcConfig, ViewGraph, ViewMatrix,
                  average_linkage_merges, ensemble_cluster, knn_graph, maximize,
                  pairwise_ari_matrix, run_mvmc, tfidf)
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
print(*loaded() or ["-"])
knn_graph(tfidf(ViewMatrix.from_codes([0, 1, 2, 2], [0, 0, 1, 2], "abc", "xyz")), 1)
print("scipy.sparse" in loaded())
"""
    env = {k: v for k, v in os.environ.items() if k != "MVMC_KERNEL"}
    env["PYTHONPATH"] = str(Path(mvmc.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    backend, before, after = proc.stdout.splitlines()
    if backend != "c":
        pytest.skip("the Python reference kernels use scipy.sparse")
    assert (before, after) == ("-", "True")
