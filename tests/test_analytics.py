from collections import Counter

import numpy as np
import pytest

from mvmc import top_user_score, top_users, unique_user_ratio
from mvmc.analytics import (
    cluster_report_rows,
    hashtag_report_rows,
    token_frequencies,
    usage_tables,
)
from mvmc.cli import _write_reports, _write_rows
from mvmc.compare import LabeledClustering
from mvmc.graph import GraphUsageError
from mvmc.ingest import MIN_POSTS_PER_HASHTAG, code_posts

from oracles import brute_preprocess_text, brute_top_user_score, brute_usage_tables
from test_ingest import post, random_day


def test_top_users_takes_ceil_third():
    usage = {f"u{i}": 10 - i for i in range(7)}
    got = top_users(usage)  # ceil(7/3) = 3
    assert got == {"u0", "u1", "u2"}


def test_top_users_tie_breaks_by_id():
    usage = {"b": 5, "a": 5, "c": 5}
    assert top_users(usage, fraction=1 / 3) == {"a"}


def test_top_users_edge_cases():
    assert top_users({}) == frozenset()
    assert top_users({"x": 1}, fraction=1.0) == {"x"}
    with pytest.raises(GraphUsageError):
        top_users({"x": 1}, fraction=0)


def test_top_user_score_examples():
    tops = {"#a": frozenset({"u1", "u2"}), "#b": frozenset({"u3", "u4"})}
    assert top_user_score(["#a", "#b"], tops) == 1.0  # disjoint
    tops["#b"] = frozenset({"u1", "u2"})
    assert top_user_score(["#a", "#b"], tops) == 0.5  # identical
    assert top_user_score(["#a"], tops) == 1.0


def test_top_user_score_matches_bruteforce():
    import random

    rng = random.Random(50)
    for _ in range(20):
        tags = [f"#t{i}" for i in range(rng.randint(1, 6))]
        tops = {
            t: frozenset(f"u{rng.randint(0, 9)}" for _ in range(rng.randint(0, 5)))
            for t in tags
        }
        got = top_user_score(tags, tops)
        assert got == pytest.approx(brute_top_user_score([tops[t] for t in tags]))
        assert 0.0 < got <= 1.0 or got == 1.0


def test_unique_user_ratio():
    assert unique_user_ratio({"u1": 1, "u2": 1}) == 1.0
    assert unique_user_ratio({"u1": 119}) == pytest.approx(1 / 119)
    assert unique_user_ratio({"u1": 3, "u2": 1}) == 0.5
    with pytest.raises(GraphUsageError):
        unique_user_ratio({})


def test_cluster_report_rows():
    clusters = {0: ["#a", "#b"], 1: ["#c"]}
    usage = {
        "#a": {"u1": 4, "u2": 1, "u3": 1},
        "#b": {"u1": 2},
        "#c": {"u9": 1},
    }
    rows = cluster_report_rows(clusters, usage)
    assert rows[0] == (0, 2, 1, 0.5)  # top user u1 shared by #a and #b
    assert rows[1] == (1, 1, 1, 1.0)


def test_hashtag_report_rows():
    usage = {"#b": {"u1": 2, "u2": 2}, "#a": {"u1": 1}}
    rows = hashtag_report_rows(usage)
    assert rows == [("#a", 1, 1, 1.0), ("#b", 4, 2, 0.5)]


def test_token_frequencies():
    # one cluster's totals: #a {mask: 3, stay: 1} plus #b {mask: 2, home: 2, bay: 1}
    totals = {"mask": 5, "stay": 1, "home": 2, "bay": 1}
    assert token_frequencies(totals, top_n=2) == [("mask", 5), ("home", 2)]
    assert token_frequencies(totals) == [("mask", 5), ("home", 2), ("bay", 1), ("stay", 1)]
    assert token_frequencies(totals, top_n=0) == []
    assert token_frequencies({}) == []


REPORTS = ("clusters.tsv", "hashtags.tsv", "tokens.tsv")


def brute_reports(posts, lc, out, fraction, top_tokens):
    """The three report files from the brute-force tables of all the posts."""
    usage, tokens = brute_usage_tables(posts, set(lc.assignments))
    clusters = {str(label): sorted(h for h, lab in lc.assignments.items() if lab == label)
                for label in set(lc.assignments.values())}
    ranked = {}
    for label, hashtags in clusters.items():
        total = sum((tokens.get(h, Counter()) for h in hashtags), Counter())
        ranked[label] = sorted(total.items(), key=lambda kv: (-kv[1], kv[0]))[:top_tokens]
    _write_rows(out / "clusters.tsv", cluster_report_rows(clusters, usage, fraction),
                "cluster\tsize\tunique_top_users\ttop_user_score")
    _write_rows(out / "hashtags.tsv", hashtag_report_rows(usage),
                "hashtag\tuses\tunique_users\tunique_user_ratio")
    _write_rows(out / "tokens.tsv",
                ((label, tok, n) for label in sorted(ranked) for tok, n in ranked[label]),
                "cluster\ttoken\tcount")
    return usage, tokens, ranked


def random_period(rng):
    """2-4 days of `random_day` posts, and a clustering of some of their
    hashtags plus one that no post holds."""
    days = [random_day(rng, int(rng.integers(0, 40))) for _ in range(int(rng.integers(2, 5)))]
    seen = sorted({h for day in days for p in day for h in p.hashtags})
    clustered = [h for h in seen if rng.random() < 0.8] + ["#unused"]
    labels = rng.integers(0, 3, size=len(clustered)).tolist()
    return days, LabeledClustering(dict(zip(clustered, labels)))


def test_report_tables_match_brute_force(tmp_path):
    cases = Counter()
    for seed in range(120):
        rng = np.random.default_rng(seed)
        days, lc = random_period(rng)
        posts = [p for day in days for p in day]
        codes = [code_posts(day) for day in days]
        fraction = (1 / 3, 0.5, 1.0)[seed % 3]
        top_tokens = (0, 1, 3, 20)[seed % 4]

        # per-hashtag tables: each clustered hashtag as a cluster of its own
        usage, tokens = usage_tables(codes, {h: [h] for h in lc.assignments})
        brute_usage, brute_tokens = brute_usage_tables(posts, set(lc.assignments))
        assert usage == brute_usage
        assert {h: c for h, c in tokens.items() if c} == {
            h: dict(c) for h, c in brute_tokens.items() if c}
        assert all(type(n) is int for c in tokens.values() for n in c.values())

        got, want = tmp_path / f"got{seed}", tmp_path / f"want{seed}"
        _write_reports(codes, lc, got, fraction, top_tokens)
        _, _, ranked = brute_reports(posts, lc, want, fraction, top_tokens)
        for name in REPORTS:
            assert (got / name).read_bytes() == (want / name).read_bytes(), (seed, name)

        def distinct_posts(day, h):
            return len({p.post_id for p in day if h in p.hashtags})

        cases["floor crossed between days"] += any(
            0 < distinct_posts(a, h) < MIN_POSTS_PER_HASHTAG <= distinct_posts(b, h)
            for h in lc.assignments for a in days for b in days)
        cases["hashtag repeated in a post"] += any(
            len(set(p.hashtags)) < len(p.hashtags) for p in posts)
        cases["duplicate post id"] += any(
            len({p.post_id for p in day}) < len(day) for day in days)
        cases["post without hashtags"] += any(not p.hashtags for p in posts)
        cases["tie in user counts"] += any(
            len(set(counts.values())) < len(counts) for counts in brute_usage.values())
        cases["tie in token counts"] += any(
            len({n for _tok, n in rows}) < len(rows) for rows in ranked.values())
        cases["non-ASCII token"] += any(
            not tok.isascii() for p in posts for tok in brute_preprocess_text(p.text))
    assert len(cases) == 7 and min(cases.values()) > 0, cases


def test_report_rows_carry_the_clusterings_labels(tmp_path):
    # 13 hashtags in 12 clusters: from label 10 on, the labels' string order
    # is not their numeric order
    labels = dict(zip((f"#h{i}" for i in range(13)), [*range(12), 11]))
    posts = [post(f"p{i}{j}", [h], text="stay home", user=f"u{j}")
             for i, h in enumerate(labels) for j in range(3)]
    lc = LabeledClustering(labels)
    got, want = tmp_path / "got", tmp_path / "want"
    _write_reports([code_posts(posts)], lc, got, 1 / 3, 2)
    brute_reports(posts, lc, want, 1 / 3, 2)
    for name in REPORTS:
        assert (got / name).read_bytes() == (want / name).read_bytes(), name
    rows = [line.split("\t") for line in (got / "clusters.tsv").read_text().splitlines()[1:]]
    assert [row[0] for row in rows] == sorted(str(label) for label in range(12))
    assert {row[0]: int(row[1]) for row in rows} == {
        str(label): list(labels.values()).count(label) for label in range(12)}
