from datetime import date, datetime, timezone

import numpy as np
import pytest
from oracles import brute_daily_views, brute_preprocess_text

from mvmc import PostRecord, build_daily_views, preprocess_text
from mvmc.ingest import (
    MIN_POSTS_PER_HASHTAG,
    RecordError,
    VIEW_NAMES,
    group_by_day,
    parse_json_record,
    parse_tsv_record,
    read_posts,
)

DAY = date(2020, 3, 1)


def post(pid, tags, text="", user="u1", urls=(), hour=12):
    return PostRecord(
        post_id=pid,
        timestamp=datetime(2020, 3, 1, hour, tzinfo=timezone.utc),
        user_id=user,
        text=text,
        hashtags=tuple(tags),
        urls=tuple(urls),
    )


def test_preprocess_strips_markup():
    assert preprocess_text("Check #covid19 https://x.co NOW!") == ["check", "now"]


def test_preprocess_retweet_and_mentions():
    assert preprocess_text("RT @user: Stay RESTful, art of RT") == [
        "stay",
        "restful",
        "art",
        "of",
    ]


def test_preprocess_keeps_unicode_words_and_digits():
    assert preprocess_text("Café N°5 costs 10€ www.shop.example") == [
        "café",
        "n",
        "5",
        "costs",
        "10",
    ]


def test_preprocess_lowers_sigma_per_character():
    # whole-string lower() would end "ΟΔΟΣ" with the final sigma "ς"
    assert preprocess_text("ΟΔΟΣ Σ ΣΑΣ") == ["οδοσ", "σ", "σασ"]
    assert preprocess_text("İstanbul") == ["i̇stanbul"]


def tokeniser_mismatches(strings):
    """The first ten strings the tokeniser and its oracle split differently."""
    bad = [s for s in strings if preprocess_text(s) != brute_preprocess_text(s)]
    return [ascii(s) for s in bad[:10]]


@pytest.mark.parametrize("template", ["{}", "a{}b"])
def test_preprocess_matches_oracle_on_every_code_point(template):
    assert not tokeniser_mismatches(template.format(chr(c)) for c in range(0x110000))


def test_preprocess_matches_oracle_on_random_markup():
    pieces = [
        "http://x.co/a", "https://t.co/ΣΣ", "www.site.example", "#tag", "#Σ", "@user",
        "@_u1", "RT", "rt", "xRT", "RT:", "Σ", "ς", "ΣΑΣ", "İ", "I", "ß", "0", "42",
        "٣", "½", "_", "__", "a", "Café", "é", "\u0301", "\u20dd", "e\u0301", "\u200d",
        "-", ".", ":", "/", "#", "@", "www.", " ", "  ", "\t", "\n", "\u00a0",
    ]
    rng = np.random.default_rng(2020)
    strings = [
        "".join(pieces[i] for i in rng.integers(len(pieces), size=rng.integers(1, 12)))
        for _ in range(200_000)
    ]
    assert not tokeniser_mismatches(strings)


def test_parse_json_record():
    rec = parse_json_record(
        '{"post_id": "1", "timestamp": "2020-03-01T12:00:00Z", "user_id": "u9",'
        ' "text": "hi", "hashtags": ["#a"], "urls": []}'
    )
    assert rec.user_id == "u9" and rec.day == DAY
    with pytest.raises(RecordError):
        parse_json_record('{"timestamp": "2020-03-01T00:00:00Z"}')


def test_parse_tsv_record():
    rec = parse_tsv_record("1\t2020-03-01T12:00:00Z\tu9\thi there\t#a,#b\t\n")
    assert rec.hashtags == ("#a", "#b") and rec.urls == ()
    with pytest.raises(RecordError):
        parse_tsv_record("too\tfew\tfields")


def test_json_record_drops_empty_urls():
    rec = parse_json_record(
        '{"post_id": "1", "timestamp": "2020-03-01T12:00:00Z", "user_id": "u9",'
        ' "text": "hi", "hashtags": ["#a"], "urls": ["", "http://x.co/a", ""]}'
    )
    assert rec.urls == ("http://x.co/a",)


def test_tsv_record_drops_empty_urls():
    rec = parse_tsv_record("1\t2020-03-01T12:00:00Z\tu9\thi\t#a\t,http://x.co/a,\n")
    assert rec.urls == ("http://x.co/a",)


def test_timestamps_outside_the_utc_calendar_are_bad_records(tmp_path):
    # each is a valid date, but its UTC time falls before year 1 or after 9999
    stamps = ["0001-01-01T00:00:00+01:00", "9999-12-31T23:00:00-05:00"]
    path = tmp_path / "posts.tsv"
    path.write_text("".join(f"{i}\t{ts}\tu\t\t#a\t\n" for i, ts in enumerate(stamps)))
    errors = []
    assert read_posts(path, on_error=lambda ln, msg: errors.append((ln, msg))) == []
    assert errors == [(1, "bad record: date value out of range"),
                      (2, "bad record: date value out of range")]
    with pytest.raises(RecordError, match="date value out of range"):
        parse_json_record('{"post_id": "1", "timestamp": "%s", "user_id": "u"}' % stamps[0])


def test_read_posts_reports_bad_lines(tmp_path):
    path = tmp_path / "posts.jsonl"
    path.write_text(
        '{"post_id": "1", "timestamp": "2020-03-01T12:00:00Z", "user_id": "u",'
        ' "text": "", "hashtags": [], "urls": []}\n'
        "this is not json\n"
    )
    errors = []
    records = read_posts(path, on_error=lambda ln, msg: errors.append(ln))
    assert len(records) == 1
    assert errors == [2]


def test_read_posts_skips_lines_that_are_not_utf8(tmp_path):
    good = (
        '{"post_id": "%s", "timestamp": "2020-03-01T12:00:00Z", "user_id": "u",'
        ' "text": "café", "hashtags": ["#été"], "urls": []}\n'
    )
    path = tmp_path / "posts.jsonl"
    path.write_bytes((good % "1").encode() + b'{"post_id": "\xff\xfe"}\n' + (good % "3").encode())
    errors = []
    records = read_posts(path, on_error=lambda ln, msg: errors.append((ln, msg)))
    assert [(r.post_id, r.text, r.hashtags) for r in records] == [
        ("1", "café", ("#été",)),
        ("3", "café", ("#été",)),
    ]
    assert errors == [(2, "not valid UTF-8 at column 14")]


def test_group_by_day_sorted():
    a = post("1", ["#x"])
    b = PostRecord("2", datetime(2020, 2, 28, tzinfo=timezone.utc), "u", "", (), ())
    grouped = group_by_day([a, b])
    assert list(grouped) == [date(2020, 2, 28), DAY]


def test_rare_hashtags_dropped():
    posts = [post(str(i), ["#keep", "#rare"] if i == 0 else ["#keep"]) for i in range(3)]
    views = build_daily_views(posts, DAY)
    assert views.hashtags == ("#keep",)
    assert MIN_POSTS_PER_HASHTAG == 3


def test_threshold_counts_distinct_posts_not_uses():
    # three mentions of #x inside a single post must not rescue it
    posts = [post("0", ["#x", "#x", "#x"])] + [post(str(i), ["#y"]) for i in range(1, 4)]
    views = build_daily_views(posts, DAY)
    assert views.hashtags == ("#y",)


def test_hashtags_case_sensitive():
    posts = [post(str(i), ["#Covid"]) for i in range(3)]
    posts += [post(str(i + 10), ["#covid"]) for i in range(2)]
    views = build_daily_views(posts, DAY)
    assert views.hashtags == ("#Covid",)


def test_views_share_row_registry():
    posts = [
        post(str(i), ["#a", "#b"], text="hello world", user=f"u{i}", urls=["http://s.co/1"])
        for i in range(3)
    ]
    views = build_daily_views(posts, DAY)
    rows = views.text_view.row_names
    for v in views.as_list():
        assert v.row_names == rows
    assert len(VIEW_NAMES) == 4


def test_cooccurrence_symmetric_counts():
    posts = [post(str(i), ["#a", "#b"]) for i in range(3)]
    posts.append(post("9", ["#a"]))
    views = build_daily_views(posts, DAY)
    co = views.cooccur_view.counts.toarray()
    rows = views.hashtags
    ia, ib = rows.index("#a"), rows.index("#b")
    assert co[ia, ib] == co[ib, ia] == 3
    assert co[ia, ia] == 0


def test_user_and_url_views_count_posts():
    posts = [
        post("0", ["#a"], user="alice", urls=["http://x.co/p"]),
        post("1", ["#a"], user="alice", urls=["http://x.co/p", "http://y.co/q"]),
        post("2", ["#a"], user="bob"),
    ]
    views = build_daily_views(posts, DAY)
    users = views.user_view
    assert users.counts[0, users.col_names.index("alice")] == 2
    assert users.counts[0, users.col_names.index("bob")] == 1
    urls = views.url_view
    assert urls.counts[0, urls.col_names.index("http://x.co/p")] == 2


def test_url_domain_mode():
    posts = [
        post(str(i), ["#a"], urls=[f"http://news.example/article{i}"]) for i in range(3)
    ]
    views = build_daily_views(posts, DAY, url_mode="domain")
    assert views.url_view.col_names == ("news.example",)
    assert views.url_view.counts[0, 0] == 3


def test_wrong_day_rejected():
    with pytest.raises(RecordError):
        build_daily_views([post("1", ["#a"])], date(2020, 3, 2))


def random_day(rng, n_posts):
    """Posts of one day built to hit every accumulation case: repeated
    hashtags and tokens in a post, duplicate post ids, hashtags under the
    floor, posts with no surviving hashtag, repeated URLs."""
    tags = ["#a", "#b", "#A", "#c", "#d", "#e", "#covid", "#Covid"]
    words = ["stay", "home", "Stay", "HOME", "ΣΑΣ", "masks", "42", "N°5", "#x", "@who", "RT"]
    urls = ["http://a.example/1", "http://a.example/2", "https://b.example/x", "www.c.example"]

    def pick(pool, most):
        return [pool[i] for i in rng.integers(len(pool), size=rng.integers(0, most + 1))]

    return [
        post(
            f"p{rng.integers(n_posts + 2)}",
            pick(tags, 4),
            text=" ".join(pick(words, 8)),
            user=f"u{rng.integers(4)}",
            urls=pick(urls, 3),
            hour=int(rng.integers(24)),
        )
        for _ in range(n_posts)
    ]


@pytest.mark.parametrize("seed", range(60))
def test_views_match_dict_accumulator(seed):
    rng = np.random.default_rng(seed)
    posts = random_day(rng, int(rng.integers(0, 40)))
    url_mode = ("exact", "domain")[seed % 2]
    views = build_daily_views(posts, DAY, url_mode=url_mode)
    registry, expected = brute_daily_views(posts, url_mode=url_mode)
    assert views.hashtags == registry
    for view, (cols, counts) in zip(views.as_list(), expected):
        assert view.row_names == registry and view.col_names == cols
        assert view.counts.shape == counts.shape
        for attr in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(view.counts, attr), getattr(counts, attr)), attr
    # the day's codes decode to each post's tokens, user and hashtags, in post order
    codes = views.codes
    ends = np.cumsum(codes.token_len)
    decoded = [[codes.tokens[c] for c in codes.token_code[lo:hi]]
               for lo, hi in zip(ends - codes.token_len, ends)]
    assert decoded == [brute_preprocess_text(p.text) for p in posts]
    assert [codes.users[c] for c in codes.user_code] == [p.user_id for p in posts]
    pairs = [(int(i), codes.hashtags[c]) for i, c in zip(codes.tag_post, codes.tag_code)]
    assert pairs == [(i, h) for i, p in enumerate(posts) for h in dict.fromkeys(p.hashtags)]
    assert codes.hashtags[:codes.n_registry] == registry


def test_random_days_cover_every_case():
    found = set()
    for seed in range(60):
        rng = np.random.default_rng(seed)
        posts = random_day(rng, int(rng.integers(0, 40)))
        kept = set(build_daily_views(posts, DAY).hashtags)
        ids = [p.post_id for p in posts]
        tokens = [preprocess_text(p.text) for p in posts]
        cases = {
            "repeated hashtag": any(len(set(p.hashtags)) < len(p.hashtags) for p in posts),
            "repeated token": any(len(set(toks)) < len(toks) for toks in tokens),
            "duplicate post id": len(set(ids)) < len(ids),
            "dropped hashtag": any(set(p.hashtags) - kept for p in posts),
            "post without kept hashtag": any(not kept & set(p.hashtags) for p in posts),
        }
        found |= {case for case, hit in cases.items() if hit}
    assert found == set(cases)
