import json
import re
from collections import Counter, namedtuple
from datetime import date, datetime, timezone

import numpy as np
import pytest
from oracles import brute_daily_views, brute_group_by_day, brute_preprocess_text, brute_record

from mvmc import _kernels, build_daily_views, ingest, preprocess_text
from mvmc.ingest import (
    MIN_POSTS_PER_HASHTAG,
    TEXT_BATCH,
    RecordError,
    VIEW_NAMES,
    CorpusDay,
    PostCodes,
    PostCorpus,
    group_by_day,
    parse_json_record,
    parse_tsv_record,
    read_posts,
)
from mvmc.ingest import _parse_timestamp

DAY = date(2020, 3, 1)

# a record tuple of the readers, with its fields named
Post = namedtuple("Post", "post_id timestamp user_id text hashtags urls")


def post(pid, tags, text="", user="u1", urls=(), hour=12):
    return Post(pid, datetime(2020, 3, 1, hour, tzinfo=timezone.utc), user, text, tuple(tags),
                tuple(urls))


def coded_day(posts):
    """Posts on DAY coded through `group_by_day`; none give an empty day."""
    return group_by_day(posts).get(DAY, CorpusDay(PostCorpus()))


def day_views(posts, url_mode="exact"):
    return build_daily_views(coded_day(posts), DAY, url_mode=url_mode)


def read_back(days):
    """(post id, user, tokens, distinct hashtags, URLs) of each post that
    the days of `group_by_day` hold, in date order."""
    def runs(codes, lens, table):
        flat = iter(codes)
        return [tuple(table.names[next(flat)] for _ in range(n)) for n in lens]

    rows = []
    for day in days.values():
        ids, corpus = list(day.ids), day.corpus
        rows += zip(
            (ids[c] for c in day.post_id),
            (corpus.users.names[c] for c in day.user),
            runs(day.tokens, day.n_tokens, corpus.tokens),
            runs(day.tags, day.n_tags, corpus.hashtags),
            runs(day.urls, day.n_urls, corpus.urls),
        )
    return rows


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
    rec = Post(*parse_json_record(
        '{"post_id": "1", "timestamp": "2020-03-01T12:00:00Z", "user_id": "u9",'
        ' "text": "hi", "hashtags": ["#a"], "urls": []}'
    ))
    assert rec.user_id == "u9" and rec.timestamp.date() == DAY
    with pytest.raises(RecordError):
        parse_json_record('{"timestamp": "2020-03-01T00:00:00Z"}')


def test_parse_tsv_record():
    rec = Post(*parse_tsv_record("1\t2020-03-01T12:00:00Z\tu9\thi there\t#a,#b\t\n"))
    assert rec.hashtags == ("#a", "#b") and rec.urls == ()
    with pytest.raises(RecordError):
        parse_tsv_record("too\tfew\tfields")


def test_json_record_drops_empty_urls():
    rec = Post(*parse_json_record(
        '{"post_id": "1", "timestamp": "2020-03-01T12:00:00Z", "user_id": "u9",'
        ' "text": "hi", "hashtags": ["#a"], "urls": ["", "http://x.co/a", ""]}'
    ))
    assert rec.urls == ("http://x.co/a",)


def test_tsv_record_drops_empty_urls():
    rec = Post(*parse_tsv_record("1\t2020-03-01T12:00:00Z\tu9\thi\t#a\t,http://x.co/a,\n"))
    assert rec.urls == ("http://x.co/a",)


def test_timestamps_outside_the_utc_calendar_are_bad_records(tmp_path):
    # each is a valid date, but its UTC time falls before year 1 or after 9999
    stamps = ["0001-01-01T00:00:00+01:00", "9999-12-31T23:00:00-05:00"]
    path = tmp_path / "posts.tsv"
    path.write_text("".join(f"{i}\t{ts}\tu\t\t#a\t\n" for i, ts in enumerate(stamps)))
    errors = []
    assert read_back(read_posts(path, on_error=lambda ln, msg: errors.append((ln, msg)))) == []
    assert errors == [(1, "bad record: date value out of range"),
                      (2, "bad record: date value out of range")]
    with pytest.raises(RecordError, match="date value out of range"):
        parse_json_record('{"post_id": "1", "timestamp": "%s", "user_id": "u"}' % stamps[0])


def json_line(**fields):
    record = {"post_id": "1", "timestamp": "2020-03-01T12:00:00Z", "user_id": "u",
              "text": "hi", "hashtags": ["#a"], "urls": []}
    return json.dumps({**record, **fields}) + "\n"


@pytest.mark.parametrize("field", ["post_id", "user_id", "text"])
def test_a_null_id_or_text_is_a_bad_record(tmp_path, field):
    """A null is not the string "None": posts with null ids would share one
    id, and one null user would hold all of them."""
    path = tmp_path / "posts.jsonl"
    nulled = "".join(json_line(**{"post_id": str(i), field: None}) for i in (2, 3, 4))
    path.write_text(json_line(post_id="1") + nulled + json_line(post_id="5"))
    errors = []
    days = read_posts(path, on_error=lambda ln, msg: errors.append((ln, msg)))
    assert [post_id for post_id, *_ in read_back(days)] == ["1", "5"]
    assert errors == [(ln, f"bad record: {field} is null") for ln in (2, 3, 4)]
    with pytest.raises(RecordError, match=f"^bad record: {field} is null$"):
        parse_json_record(json_line(**{field: None}))


@pytest.mark.parametrize("field, value", [
    ("post_id", [1]), ("user_id", True), ("text", {"a": "flu"}), ("text", False),
])
def test_an_id_or_text_that_is_not_a_string_or_number_is_a_bad_record(tmp_path, field, value):
    """A bool, array or object is not read as its Python repr."""
    path = tmp_path / "posts.jsonl"
    path.write_text(json_line(post_id="1") + json_line(**{"post_id": "2", field: value}))
    errors = []
    days = read_posts(path, on_error=lambda ln, msg: errors.append((ln, msg)))
    assert [post_id for post_id, *_ in read_back(days)] == ["1"]
    assert errors == [(2, f"bad record: {field} is not a string or a number")]
    with pytest.raises(RecordError, match=f"^bad record: {field} is not a string or a number$"):
        parse_json_record(json_line(**{field: value}))


def test_json_numbers_are_read_as_strings():
    rec = Post(*parse_json_record(json_line(post_id=7, user_id=12, text=3.5)))
    assert (rec.post_id, rec.user_id, rec.text) == ("7", "12", "3.5")
    assert preprocess_text(rec.text) == ["3", "5"]


# field values for the record draws: exact strings, numbers, nulls, bools and
# other JSON types; names with separators, empty and repeated ones; good,
# non-UTC, zone-less, bad and out-of-range timestamps
SCALARS = ["p1", "p1", "", "a b", "ΣΑΣ", "İ", 7, -3, 3.5, 1e20, None, True, False, [1], {"a": 1}]
USERS = SCALARS + ["u\tx", "u\nx", "u\rx"]
NAMES = ["#a", "#a", "#Σ", "", "a\tb", "a\nb", "a\rb", "http://x.co/a", "x\r", "x,y"]
STAMPS = ["2020-03-01T12:00:00Z", "2020-03-01T12:00:00+00:00", "2020-03-01T23:30:00-05:00",
          "2020-03-01T12:00:00", "2020-13-01T00:00:00", "noon", "",
          "0001-01-01T00:00:00+01:00", 20200301, None]


def draw_record(rng):
    """Random fields (post_id, timestamp, user_id, text, hashtags, urls)."""
    def pick(pool):
        return pool[rng.integers(len(pool))]

    def names():
        if rng.random() < 0.1:
            return pick(["#a", None, 5])
        items = [pick(NAMES) if rng.random() < 0.3 else pick(NAMES[:3])
                 for _ in range(rng.integers(0, 4))]
        return items + [pick([1, None])] if rng.random() < 0.05 else items

    fields = [pick(SCALARS), pick(STAMPS), pick(USERS), pick(SCALARS), names(), names()]
    for i in (0, 2, 3):  # most draws get string ids and text, the common case
        if rng.random() < 0.7:
            fields[i] = pick(["p1", "u2", "a b", "ΣΑΣ"])
    if rng.random() < 0.5:
        fields[1] = pick(STAMPS[:3])
    return fields


# each kind of fault, as its message names it; a message is of the first
# kind it holds
FAULTS = ["is null", "or a number", "non-empty strings", "array of strings", "is not a string",
          "Invalid isoformat", "out of range", "tab or line break"]


def outcome(parse, *args):
    """repr of the checked tuple, or the text of the error raised."""
    try:
        return repr(parse(*args))
    except ValueError as exc:  # a `RecordError` from the readers
        return f"{type(exc).__name__}: {exc}"


def oracle_outcome(*fields):
    return outcome(brute_record, *fields).replace("ValueError: ", "RecordError: ", 1)


def tsv_form(fields) -> str:
    """The fields written as one TSV line, lists joined by commas."""
    joined = [",".join(map(str, f)) if isinstance(f, list) else str(f) for f in fields]
    return "\t".join(joined) + "\n"


def oracle_tsv_outcome(line):
    """The oracle on the fields of a TSV line, split as the format says."""
    parts = line.rstrip("\n").split("\t")
    if len(parts) != 6:
        return f"RecordError: expected 6 TSV fields, got {len(parts)}"
    post_id, ts, user, text, tags, urls = parts
    return oracle_outcome(post_id, ts, user, text, [t for t in tags.split(",") if t],
                          urls.split(","))


def test_records_match_the_oracle_on_random_fields():
    """Both readers check each record as `brute_record` does: the same tuple,
    or a `RecordError` with the same text."""
    rng = np.random.default_rng(23)
    cases = Counter()
    for _ in range(4000):
        fields = draw_record(rng)
        obj = dict(zip(Post._fields, fields))
        for key, default in (("text", ""), ("hashtags", []), ("urls", [])):
            if rng.random() < 0.05:  # an optional key left out
                fields[Post._fields.index(key)] = default
                del obj[key]
        want = oracle_outcome(*fields)
        assert outcome(parse_json_record, json.dumps(obj)) == want, obj
        line = tsv_form(fields)
        assert outcome(parse_tsv_record, line) == oracle_tsv_outcome(line), line
        numbers = any(type(fields[i]) in (int, float) for i in (0, 2, 3))
        cases[next((f for f in FAULTS if f in want), "number" if numbers else "ok")] += 1
    assert cases.keys() == {*FAULTS, "number", "ok"}, cases
    assert cases["ok"] > 500, cases


def test_read_posts_reports_bad_lines(tmp_path):
    path = tmp_path / "posts.jsonl"
    path.write_text(
        '{"post_id": "1", "timestamp": "2020-03-01T12:00:00Z", "user_id": "u",'
        ' "text": "", "hashtags": [], "urls": []}\n'
        "this is not json\n"
    )
    errors = []
    days = read_posts(path, on_error=lambda ln, msg: errors.append(ln))
    assert len(read_back(days)) == 1
    assert errors == [2]


def test_read_posts_skips_lines_that_are_not_utf8(tmp_path):
    good = (
        '{"post_id": "%s", "timestamp": "2020-03-01T12:00:00Z", "user_id": "u",'
        ' "text": "café", "hashtags": ["#été"], "urls": []}\n'
    )
    path = tmp_path / "posts.jsonl"
    path.write_bytes((good % "1").encode() + b'{"post_id": "\xff\xfe"}\n' + (good % "3").encode())
    errors = []
    days = read_posts(path, on_error=lambda ln, msg: errors.append((ln, msg)))
    assert [(post_id, tokens, tags) for post_id, _user, tokens, tags, _urls in read_back(days)] == [
        ("1", ("café",), ("#été",)),
        ("3", ("café",), ("#été",)),
    ]
    assert errors == [(2, "not valid UTF-8 at column 14")]


# one file's lines, each as (JSON form, TSV form); bytes are written as they are
MIXED = [
    ({"post_id": "a1", "timestamp": "2020-03-01T10:00:00Z", "user_id": "u1",
      "text": "RT @who: Stay HOME #tag http://x.co now!", "hashtags": ["#tag", "#tag"],
      "urls": ["http://x.co"]},
     "a1\t2020-03-01T10:00:00Z\tu1\tRT @who: Stay HOME #tag http://x.co now!\t#tag,#tag\t"
     "http://x.co"),
    ("", ""),
    ({"post_id": 7, "timestamp": "2020-03-01T23:30:00-05:00", "user_id": "u2",
      "text": "ΟΔΟΣ Σ café", "hashtags": ["#Σ"], "urls": []},
     "7\t2020-03-01T23:30:00-05:00\tu2\tΟΔΟΣ Σ café\t#Σ\t"),
    (b'{"post_id": "\xff"}', b"a2\t2020-03-01T12:00:00Z\tu\xff\t\t#tag\t"),
    ({"post_id": "a3", "timestamp": "2020-03-01T11:00:00Z", "user_id": "u1", "text": "tab",
      "hashtags": ["#a\tb"]},
     "a3\t2020-03-01T11:00:00Z\tu1\ttab\t#a\tb\t"),
    ("   ", "   "),
    ({"post_id": "a4", "timestamp": "2020-03-01T12:00:00Z", "user_id": "u3",
      "text": "İstanbul stay 42 N°5", "hashtags": ["#tag", "#Σ"], "urls": ["", "http://y.co/p"]},
     "a4\t2020-03-01T12:00:00Z\tu3\tİstanbul stay 42 N°5\t#tag,#Σ\t,http://y.co/p"),
]


@pytest.mark.parametrize("suffix", [".jsonl", ".tsv"])
def test_read_posts_codes_a_mixed_file(tmp_path, suffix):
    """Pinned codes, name tables and warnings of `read_posts` on a file that
    mixes ASCII and non-ASCII text, an int post id, a repeated hashtag, a tab
    in a hashtag, blank lines and a line that is not UTF-8."""
    def encode(line):
        if isinstance(line, bytes):
            return line
        return (json.dumps(line, ensure_ascii=False) if isinstance(line, dict) else line).encode()

    path = tmp_path / f"posts{suffix}"
    path.write_bytes(b"".join(encode(line[suffix == ".tsv"]) + b"\n" for line in MIXED))
    errors = []
    days = read_posts(path, on_error=lambda ln, msg: errors.append((ln, msg)))

    assert errors == [
        (4, "not valid UTF-8 at column 14" if suffix == ".jsonl" else
            "not valid UTF-8 at column 26"),
        (5, "tab or line break in '#a\\tb'" if suffix == ".jsonl" else
            "expected 6 TSV fields, got 7"),
    ]
    assert list(days) == [date(2020, 3, 1), date(2020, 3, 2)]
    corpus = days[date(2020, 3, 1)].corpus
    assert corpus is days[date(2020, 3, 2)].corpus
    assert corpus.users.names == ["u1", "u2", "u3"]
    assert corpus.hashtags.names == ["#tag", "#Σ"]
    assert corpus.urls.names == ["http://x.co", "http://y.co/p"]
    assert corpus.tokens.names == ["stay", "home", "now", "οδοσ", "σ", "café", "i̇stanbul",
                                   "42", "n", "5"]
    fields = ("post_id", "user", "tags", "n_tags", "urls", "n_urls", "tokens", "n_tokens")
    assert [(list(day.ids), *(getattr(day, f).tolist() for f in fields))
            for day in days.values()] == [
        (["a1", "a4"], [0, 1], [0, 2], [0, 0, 1], [1, 2], [0, 1], [1, 1],
         [0, 1, 2, 6, 0, 7, 8, 9], [3, 5]),
        (["7"], [0], [1], [1], [1], [], [0], [3, 4, 5], [3]),
    ]


def test_group_by_day_sorted():
    a = post("1", ["#x"])
    b = Post("2", datetime(2020, 2, 28, tzinfo=timezone.utc), "u", "", (), ())
    grouped = group_by_day([a, b])
    assert list(grouped) == [date(2020, 2, 28), DAY]
    assert grouped[DAY].corpus is grouped[date(2020, 2, 28)].corpus


def test_rare_hashtags_dropped():
    posts = [post(str(i), ["#keep", "#rare"] if i == 0 else ["#keep"]) for i in range(3)]
    views = day_views(posts)
    assert views.hashtags == ("#keep",)
    assert MIN_POSTS_PER_HASHTAG == 3


def test_threshold_counts_distinct_posts_not_uses():
    # three mentions of #x inside a single post must not rescue it
    posts = [post("0", ["#x", "#x", "#x"])] + [post(str(i), ["#y"]) for i in range(1, 4)]
    views = day_views(posts)
    assert views.hashtags == ("#y",)


def test_hashtags_case_sensitive():
    posts = [post(str(i), ["#Covid"]) for i in range(3)]
    posts += [post(str(i + 10), ["#covid"]) for i in range(2)]
    views = day_views(posts)
    assert views.hashtags == ("#Covid",)


def test_views_share_row_registry():
    posts = [
        post(str(i), ["#a", "#b"], text="hello world", user=f"u{i}", urls=["http://s.co/1"])
        for i in range(3)
    ]
    views = day_views(posts)
    rows = views.text_view.row_names
    for v in views.as_list():
        assert v.row_names == rows
    assert len(VIEW_NAMES) == 4


def test_cooccurrence_symmetric_counts():
    posts = [post(str(i), ["#a", "#b"]) for i in range(3)]
    posts.append(post("9", ["#a"]))
    views = day_views(posts)
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
    views = day_views(posts)
    users = views.user_view
    assert users.counts[0, users.col_names.index("alice")] == 2
    assert users.counts[0, users.col_names.index("bob")] == 1
    urls = views.url_view
    assert urls.counts[0, urls.col_names.index("http://x.co/p")] == 2


def test_url_domain_mode():
    posts = [
        post(str(i), ["#a"], urls=[f"http://news.example/article{i}"]) for i in range(3)
    ]
    views = day_views(posts, url_mode="domain")
    assert views.url_view.col_names == ("news.example",)
    assert views.url_view.counts[0, 0] == 3


def random_day(rng, n_posts):
    """Posts of one day built to hit every accumulation case: repeated
    hashtags and tokens in a post, duplicate post ids, hashtags under the
    floor, posts with no surviving hashtag, repeated URLs, and a URL that
    urlparse rejects."""
    tags = ["#a", "#b", "#A", "#c", "#d", "#e", "#covid", "#Covid"]
    words = ["stay", "home", "Stay", "HOME", "ΣΑΣ", "masks", "42", "N°5", "#x", "@who", "RT"]
    urls = ["http://a.example/1", "http://a.example/2", "https://b.example/x", "www.c.example",
            "http://[::1"]

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
    views = day_views(posts, url_mode=url_mode)
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
        kept = set(day_views(posts).hashtags)
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


def record_line(p, suffix):
    """A post as one line of a .jsonl or .tsv corpus."""
    if suffix == ".tsv":
        fields = (p.post_id, p.timestamp.isoformat(), p.user_id, p.text,
                  ",".join(p.hashtags), ",".join(p.urls))
        return "\t".join(fields) + "\n"
    return json.dumps({"post_id": p.post_id, "timestamp": p.timestamp.isoformat(),
                       "user_id": p.user_id, "text": p.text, "hashtags": list(p.hashtags),
                       "urls": list(p.urls)}) + "\n"


def assert_same_day(got, want):
    """Two DailyViews equal view for view and code for code."""
    assert got.day == want.day and got.hashtags == want.hashtags
    for a, b in zip(got.as_list(), want.as_list()):
        assert (a.row_names, a.col_names) == (b.row_names, b.col_names)
        for attr in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(a.counts, attr), getattr(b.counts, attr)), attr
    for field in PostCodes.__dataclass_fields__:
        a, b = getattr(got.codes, field), getattr(want.codes, field)
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), field
        else:
            assert a == b, field


@pytest.mark.parametrize("suffix", [".jsonl", ".tsv"])
def test_read_days_match_the_record_adapter_and_the_oracle(tmp_path, suffix):
    """Days coded by `read_posts`, with name tables shared by all days, give
    the views and codes of each day's parsed records coded on their own
    through `group_by_day`, and the oracle's views."""
    parse = parse_tsv_record if suffix == ".tsv" else parse_json_record
    cases = Counter()
    for seed in range(40):
        rng = np.random.default_rng(seed)
        dates = [date(2020, 3, d) for d in rng.permutation([1, 2, 3, 4])[:rng.integers(2, 5)]]
        no_urls = dates[int(rng.integers(len(dates)))]
        posts = [
            p._replace(timestamp=p.timestamp.replace(day=d.day),
                       urls=() if d == no_urls else p.urls)
            for d in dates for p in random_day(rng, int(rng.integers(1, 30)))
        ]
        posts = [posts[i] for i in rng.permutation(len(posts))]
        path = tmp_path / f"posts{seed}{suffix}"
        path.write_text("".join(record_line(p, suffix) for p in posts))
        url_mode = ("exact", "domain")[seed % 2]

        days = read_posts(path)
        records = {}  # each day's parsed records, in file order
        for line in path.read_text().splitlines(keepends=True):
            record = Post(*parse(line))
            records.setdefault(record.timestamp.date(), []).append(record)
        records = dict(sorted(records.items()))
        assert list(days) == list(records) == sorted(dates)
        assert read_back(days) == [
            (p.post_id, p.user_id, tuple(preprocess_text(p.text)), tuple(dict.fromkeys(p.hashtags)),
             p.urls) for day_posts in records.values() for p in day_posts]
        for day, day_posts in records.items():
            coded = build_daily_views(days[day], day, url_mode=url_mode)
            (alone,) = group_by_day(day_posts).values()
            assert_same_day(coded, build_daily_views(alone, day, url_mode=url_mode))
            registry, expected = brute_daily_views(day_posts, url_mode=url_mode)
            assert coded.hashtags == registry
            for view, (cols, counts) in zip(coded.as_list(), expected):
                assert view.col_names == cols
                assert (view.counts != counts).nnz == 0

        first_seen = list(dict.fromkeys(p.timestamp.date() for p in posts))
        ids = [(p.timestamp.date(), p.post_id) for p in posts]
        cases["days out of file order"] += first_seen != sorted(first_seen)
        cases["post id repeated in a day"] += len(set(ids)) < len(ids)
        cases["post id on two days"] += len({i for _d, i in set(ids)}) < len(set(ids))
        cases["hashtag repeated in a post"] += any(
            len(set(p.hashtags)) < len(p.hashtags) for p in posts)
        cases["empty text"] += any(not p.text for p in posts)
        cases["day without URLs"] += any(
            not any(p.urls for p in day_posts) for day_posts in records.values())
        cases[url_mode] += 1
    assert len(cases) == 8 and min(cases.values()) > 0, cases


requires_c = pytest.mark.skipif(
    _kernels.BACKEND != "c", reason="the compiled kernel did not load (no C compiler?)"
)

# pieces of text rich in the markers of preprocess_text's four passes
MARKUP = ["#tag", "@who_1", "RT", "www.x.y", "http://z", "https://q/r", "awww.x", "@uhttp://x"]
ASCII_PIECES = MARKUP + [
    "http://", "https:", "https://", "www.", "#", "@", "_", "\x00", *map(chr, range(9, 14)),
    *map(chr, range(28, 32)), "\x7f", " ", " ", ".", ",", "!", ":", "/", "'", "a", "Zq", "9",
    "rt", "R", "T", "h", "w", "Stay",
]
PIECES = {"ascii": ASCII_PIECES, "mixed": ASCII_PIECES + ["Σ", "é", "ΣΑΣ", "İ", "\u3000"],
          "markup": MARKUP + [" "]}


def text_batches(rng, total):
    """Batches of 1-400 texts of 0-14 pieces, (kind, texts), until `total`
    texts: all-ASCII batches, batches that mix in non-ASCII pieces, and
    batches of markup alone."""
    while total > 0:
        kind = ("ascii", "mixed", "markup")[int(rng.integers(3))]
        pool = PIECES[kind]
        texts = ["".join(pool[i] for i in rng.integers(len(pool), size=rng.integers(15)))
                 for _ in range(min(total, int(rng.integers(1, 401))))]
        total -= len(texts)
        yield kind, texts


def test_code_texts_match_the_references():
    """The bound text coder (the compiled one, when it loaded) gives what its
    Python reference gives, code for code, and the tokens of each text are
    `brute_preprocess_text`'s, on 100,000 seeded texts."""
    rng = np.random.default_rng(29)
    seen, count = Counter(), 0
    for kind, texts in text_batches(rng, 100_000):
        (codes, counts, names), want = _kernels.code_texts(texts), _kernels._code_texts(texts)
        assert codes.dtype == counts.dtype == np.int32
        assert codes.tolist() == want[0].tolist() and counts.tolist() == want[1].tolist()
        assert names == want[2]
        ends = np.cumsum(counts)
        tokens = [[names[c] for c in codes[lo:hi]] for lo, hi in zip(ends - counts, ends)]
        assert tokens == [brute_preprocess_text(t) for t in texts], kind
        count += len(texts)
        seen[kind] += 1
        seen["empty text"] += "" in texts
        seen["markup only"] += any(t and not tok for t, tok in zip(texts, tokens))
        seen["non-ASCII token"] += any(not name.isascii() for name in names)
    assert count == 100_000
    assert len(seen) == 6 and min(seen.values()) > 0, seen


def coder_args():
    """code_text_buffer inputs, as a list: the text of three texts (the
    second empty), their offsets and flags."""
    text = b"RT @a: Stay home #x"
    return [text, np.array([0, 11, 11, len(text)]), np.zeros(3, np.uint8)]


def with_entry(position, value):
    def spoil(a):
        a = a.copy()
        a[position] = value
        return a
    return spoil


BAD_CODER_ARGUMENTS = {
    "an offset that falls": (1, with_entry(2, 5)),
    "offsets not from 0": (1, with_entry(0, 1)),
    "offsets past the text": (1, with_entry(-1, 20)),
    "offsets short of the text": (1, with_entry(-1, 18)),
    "no offsets": (1, lambda a: a[:0]),
    "flags one short": (2, lambda a: a[:-1]),
    "flags one too many": (2, lambda a: np.append(a, a[:1])),
    "offsets as float": (1, lambda a: a.astype(float)),
    "text as str": (0, bytes.decode),
}


@requires_c
@pytest.mark.parametrize("case", sorted(BAD_CODER_ARGUMENTS))
def test_c_code_text_buffer_rejects_bad_arguments(case):
    position, spoil = BAD_CODER_ARGUMENTS[case]
    args = coder_args()
    args[position] = spoil(args[position])
    with pytest.raises(ValueError):
        _kernels.code_text_buffer(*args)


@requires_c
def test_c_code_text_buffer_splits_flagged_texts_on_spaces_only():
    text, offsets, flags = coder_args()
    tokens = " ".join(["σασ", "x_y", "#z", "stay"]).encode()
    codes, counts, names, name_at = _kernels.code_text_buffer(
        text + tokens, np.append(offsets, len(text + tokens)), np.array([0, 0, 0, 1], np.uint8))
    # "RT @a: Stay", "", " home #x" and the flagged tokens
    assert codes.tolist() == [0, 1, 2, 3, 4, 0] and counts.tolist() == [1, 0, 1, 4]
    assert names == "stay home σασ x_y #z ".encode()
    assert name_at.tolist() == [0, 5, 10, 17, 21, 24]


def test_read_posts_codes_text_batches_as_post_by_post(tmp_path):
    """More than two batches of posts on interleaved dates, with ASCII and
    non-ASCII texts, tokens that recur across batches and malformed lines,
    one of them on a batch boundary: every day's arrays and the four name
    tables are those of coding post by post, and the warnings come in line
    order."""
    rng = np.random.default_rng(31)
    words = ["stay", "Home", "masks", "RT", "#x", "@who", "www.a.b", "ΣΑΣ", "café", "N°5", "42"]
    bad = {TEXT_BATCH: "{not json", TEXT_BATCH + 7: '{"post_id": "p", "timestamp": 5}',
           2 * TEXT_BATCH + 40: ""}
    lines = []
    for i in range(2 * TEXT_BATCH + 300):
        text = " ".join(words[j] for j in rng.integers(len(words), size=rng.integers(6)))
        if i % 97 == 0:
            text += f" only{i // 97}"  # a token new to its batch ...
        if i % 500 == 3:
            text += " only0"  # ... and one that recurs batches later
        lines.append(record_line(post(
            f"p{rng.integers(3000)}", [f"#t{rng.integers(40)}"], text=text,
            user=f"u{rng.integers(50)}", urls=[f"http://u/{rng.integers(9)}"],
            hour=int(rng.integers(24)))._replace(
                timestamp=datetime(2020, 3, int(rng.integers(1, 4)), tzinfo=timezone.utc)),
            ".jsonl"))
    for at, line in sorted(bad.items()):
        lines.insert(at, line + "\n")
    path = tmp_path / "posts.jsonl"
    path.write_text("".join(lines))

    warnings = []
    days = read_posts(path, on_error=lambda lineno, message: warnings.append(lineno))
    assert warnings == [at + 1 for at in sorted(bad) if bad[at]]  # a blank line is skipped
    records = []
    for line in lines:
        try:
            records.append(parse_json_record(line))
        except (RecordError, json.JSONDecodeError):
            pass
    want_days, want_tables = brute_group_by_day(records)
    assert len(records) > 2 * TEXT_BATCH and list(days) == list(want_days)
    for day, want in zip(days.values(), want_days.values()):
        assert {field: getattr(day, field).tolist() for field in want} == want
    corpus = next(iter(days.values())).corpus
    assert {table: getattr(corpus, table).names for table in want_tables} == want_tables
    assert not all(name.isascii() for name in want_tables["tokens"])


DAY_FIELDS = ("post_id", "user", "tags", "n_tags", "urls", "n_urls", "tokens", "n_tokens")


def read_state(path, monkeypatch, reader, batch=ingest.READ_BATCH):
    """Every CorpusDay array and post id table, the four name tables and the
    warnings of `read_posts` on path, with `_kernels.read_records` set to
    reader and `ingest.READ_BATCH` to batch."""
    monkeypatch.setattr(_kernels, "read_records", reader)
    monkeypatch.setattr(ingest, "READ_BATCH", batch)
    warnings = []
    days = read_posts(path, on_error=lambda lineno, message: warnings.append((lineno, message)))
    corpus = next(iter(days.values())).corpus
    return ({day: {"ids": list(posts.ids), **{f: getattr(posts, f).tolist() for f in DAY_FIELDS}}
             for day, posts in days.items()},
            {table: getattr(corpus, table).names for table in ("users", "hashtags", "urls", "tokens")},
            warnings)


# one line per reason the compiled reader declines a line: a non-ASCII byte,
# a \u or \" escape, a control byte, an extra, a duplicate or a missing key, a
# number, bool or null id, a nested value and an empty hashtag
DECLINED = [
    '{"post_id": "d1", "timestamp": "2020-03-01T10:00:00Z", "user_id": "u1", "text": "café ΣΑΣ"}',
    '{"post_id": "d2", "timestamp": "2020-03-01T10:00:00Z", "user_id": "u\\u00e9", "text": "\\u0041b"}',
    '{"post_id": "d3", "timestamp": "2020-03-01T10:00:00Z", "user_id": "u1", "text": "say \\"hi\\""}',
    '{"post_id": "d4", "timestamp": "2020-03-01T10:00:00Z", "user_id": "u1", "text": "a\\tb\\nc"}',
    '{"post_id": "d5", "timestamp": "2020-03-01T10:00:00Z", "user_id": "u1", "text": "raw\x01byte"}',
    '{"post_id": "d6", "timestamp": "2020-03-01T10:00:00Z", "user_id": "u2", "lang": "en"}',
    '{"post_id": "d7", "post_id": "d8", "timestamp": "2020-03-01T10:00:00Z", "user_id": "u2"}',
    '{"post_id": 7, "timestamp": "2020-03-01T10:00:00Z", "user_id": 3.5, "text": 1e3}',
    '{"post_id": "d9", "timestamp": "2020-03-01T10:00:00Z", "user_id": true}',
    '{"post_id": null, "timestamp": "2020-03-01T10:00:00Z", "user_id": "u1"}',
    '{"post_id": "d10", "timestamp": "2020-03-01T10:00:00Z", "user_id": "u1", "meta": {"a": [1]}}',
    '{"post_id": "d11", "timestamp": "2020-03-01T10:00:00Z", "user_id": "u1", "urls": [["x"]]}',
    '{"post_id": "d12", "timestamp": "2020-03-01T10:00:00Z", "user_id": "u1", "hashtags": ["", "#a"]}',
    '{"post_id": "d13", "timestamp": "2020-03-01T10:00:00Z", "text": "no user"}',
    '{"post_id": "d\\n14", "timestamp": "2020-03-01T10:00:00Z", "user_id": "u1"}',
    '{"post_id": "d15", "timestamp": "2020-03-01T10:00:00Z", "user_id": "\\ud800"}',
]
# every timestamp form: the compiled reader's grammar, with offsets that cross
# midnight, a new year and a leap day, forms only Python takes, and bad ones
STAMP_FORMS = [
    "2020-03-01", "2020-03-01T05:06", "2020-03-01T05:06:07", "2020-03-01 05:06:07",
    "2020-03-01T05:06:07.5", "2020-03-01T05:06:07.123456", "2020-03-01T05:06:07Z",
    "2020-03-01T05:06:07+00:00", "2020-03-01T05:06:07-00:00", "2020-03-02T01:00:00+05:30",
    "2020-03-01T20:00:00-08:00", "2021-01-01T02:00:00+05:00", "2020-12-31T22:00:00-03:00",
    "2020-02-29T23:30:00-01:00", "2020-03-01T00:30:00+01:00", "2020-03-01T05:06+23:59",
    "20200301", "2020-03-01T05", "2020-03-01T05:06:07+0530", "2020-03-01T05:06:07.1234567",
    "2020-03-01T05:06:07+05:30:15", "2021-02-29T00:00:00", "2020-03-01T24:00", "noon",
]
# blank lines, one of them not ASCII, and malformed ones, one of them not UTF-8
BLANK = ["", "   ", "\t", "　"]
MALFORMED = ["{not json", "[1, 2]", "\udcff{}"]


def reader_lines(rng, n):
    """n ordinary lines the compiled reader takes, on interleaved days, with
    DECLINED, a post with each of STAMP_FORMS, BLANK and MALFORMED among
    them; and the indices of the blank and malformed ones."""
    words = ["stay", "Home", "masks", "RT", "#x", "@who", "www.a.b", "http://u/1", "N5", "42"]
    keys = ["post_id", "timestamp", "user_id", "text", "hashtags", "urls"]
    lines = []
    for i in range(n):
        record = {
            "post_id": f"p{rng.integers(n // 2)}",
            "timestamp": f"2020-03-0{rng.integers(1, 4)}T{rng.integers(24):02d}:10:00+00:00",
            "user_id": f"u{rng.integers(40)}",
            "text": " ".join(words[j] for j in rng.integers(len(words), size=rng.integers(8))),
            "hashtags": [f"#t{j}" for j in rng.integers(30, size=rng.integers(4))],
            "urls": [f"http://x/{j}" if j else "" for j in rng.integers(6, size=rng.integers(3))],
        }
        order = [*keys[:3], *(k for k in keys[3:] if rng.random() < 0.8)]
        rng.shuffle(order)
        space = [", ", ",", " ,\t"][i % 3]
        lines.append("{" + space.join(f'"{k}":{" " * (i % 2)}{json.dumps(record[k])}'
                                      for k in order) + "}")
    stamped = [json.dumps({"post_id": f"s{i}", "timestamp": stamp, "user_id": "u1",
                           "text": "stamp", "hashtags": ["#s"]})
               for i, stamp in enumerate(STAMP_FORMS)]
    special = DECLINED + stamped + BLANK + MALFORMED
    for line, at in zip(special, rng.choice(n, size=len(special), replace=False)):
        lines.insert(int(at), line)
    odd = {line for line in BLANK + MALFORMED}
    return lines, [i for i, line in enumerate(lines) if line in odd]


@requires_c
def test_compiled_reader_matches_the_per_line_reader_and_the_oracle(tmp_path, monkeypatch):
    """A seeded file of ordinary lines, the lines the compiled reader
    declines, every timestamp form, blank and malformed lines, and \\n, \\r\\n
    and \\r line endings, read with batches whose boundaries fall on blank
    and malformed lines and with batches shorter than a line: every day's
    arrays, the name tables and the warnings are the per-line reader's, and
    the days and tables are `brute_group_by_day`'s."""
    rng = np.random.default_rng(53)
    lines, odd = reader_lines(rng, 3000)
    ends = ["\n", "\r\n", "\r"]
    path = tmp_path / "posts.jsonl"
    path.write_bytes(b"".join(line.encode("utf-8", "surrogateescape") + ends[i % 3].encode()
                              for i, line in enumerate(lines)))
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        sizes = [len(line.encode("utf-8", "surrogatepass")) for line in fh]
    assert len(sizes) == len(lines)
    offsets = np.cumsum([0, *sizes]).tolist()
    # a batch ends just before, or just after, a blank or malformed line
    batches = {offsets[i] + sizes[i] * after for i in odd[::3] for after in (0, 1)}
    sides, side_record, reader = [], ingest._side_record, _kernels.read_records
    monkeypatch.setattr(ingest, "_side_record",
                        lambda *args: sides.append(side_record(*args)) or sides[-1])
    want = read_state(path, monkeypatch, None)
    assert sides == []
    for batch in [ingest.READ_BATCH, 64, *sorted(batches)]:
        assert read_state(path, monkeypatch, reader, batch) == want, batch
        # the declined lines that hold a record: DECLINED's and the stamps
        # in forms that only Python takes
        assert sum(map(bool, sides)) == 15
        sides.clear()

    days, tables, warnings = want
    records = [parse_json_record(line) for i, line in enumerate(lines)
               if i + 1 not in {lineno for lineno, _ in warnings} and line.strip()]
    want_days, want_tables = brute_group_by_day(records)
    assert {day: {f: fields[f] for f in want_days[day]} for day, fields in days.items()} == want_days
    assert tables == want_tables
    assert len(warnings) == 12 and [ln for ln, _ in warnings] == sorted(ln for ln, _ in warnings)
    assert {date(2020, 2, 29), date(2020, 12, 31), date(2021, 1, 1)} <= set(days)


@requires_c
def test_compiled_timestamps_match_parse_timestamp():
    """Over a sweep of the compiled reader's timestamp grammar and its near
    misses, every timestamp the routine takes gets the UTC date that
    `_parse_timestamp` gives it, and it takes every one of the grammar that
    Python takes with a UTC year in 2..9998."""
    grammar = re.compile(r"\d{4}-\d\d-\d\d([T ]\d\d:\d\d(:\d\d(\.\d{1,6})?)?(Z|[+-]\d\d:\d\d)?)?")
    years = ["0000", "0001", "0002", "1900", "2000", "2020", "2021", "2100", "9998", "9999", "2o20"]
    dates = [f"{y}-{m}-{d}" for y in years for m in ["00", "01", "02", "03", "12", "13", "1"]
             for d in ["00", "01", "28", "29", "30", "31", "32"]]
    times = ["", "00:00", "23:59", "24:00", "12:60", "05:06:07", "05:06:60", "23:59:59.9",
             "00:00:00.123456", "00:00:00.1234567", "00:00:00.", "05", "0506", "5:06"]
    zones = ["", "Z", "+00:00", "-00:00", "+05:30", "-08:00", "+23:59", "-23:59", "+24:00",
             "+05", "+0530", "+05:30:15", "z", "+5:30"]
    stamps = [d + sep + t + z for d in ["2020-02-29", "2020-12-31", "2021-01-01", "0002-01-01",
                                         "9998-12-31", "2021-02-28"]
              for sep in "T t" for t in times for z in zones if t or not (sep + z).strip()]
    stamps += [d + tail for d in dates for tail in ["", "T00:30+01:00", "T23:30-01:00", " 12:00Z"]]
    lines = [json.dumps({"post_id": "p", "timestamp": s, "user_id": "u"}).encode() for s in stamps]
    at = np.cumsum([0, *map(len, lines)])
    state = np.zeros(_kernels.READER_SLOTS, np.int64)
    day = _kernels.read_records(state, b"".join(lines), at)[1][0].copy()
    _kernels.read_records(state)
    taken = covered = 0
    for stamp, got in zip(stamps, day.tolist()):
        try:
            want = _parse_timestamp(stamp).date()
        except (ValueError, OverflowError):
            want = None
        if got > 0:
            assert want is not None and got == want.toordinal(), stamp
            taken += 1
        elif want is not None and 2 <= want.year <= 9998 and grammar.fullmatch(stamp):
            raise AssertionError(f"declined {stamp!r}")
        covered += want is not None and got < 0
    assert taken > 900 and covered > 1000, (taken, covered)


@requires_c
def test_record_reader_keeps_its_names_from_batch_to_batch():
    """A batch's codes continue the read's earlier batches and it reports
    only its new names; a batch that declines a line adds no name until the
    call that codes it with the line's side record."""
    def lines(*records):
        data = [json_line(post_id=p, user_id=u, hashtags=[h], text=t).encode()
                for p, u, h, t in records]
        return b"".join(data), np.cumsum([0, *map(len, data)])

    state = np.zeros(_kernels.READER_SLOTS, np.int64)
    try:
        text, at = lines(("1", "u", "#a", "x y"), ("2", "v", "#a", "y"))
        _, out = _kernels.read_records(state, text, at)
        assert out[1].tolist() == [0, 1, 0, 2, 1, 1, 0, 1] and out[4].tolist() == [0, 1, 1]
        assert out[7] == b"u\n#a\nx\ny\nv\n" and out[9].tolist() == [0, 1, 3, 3, 0]
        text, at = lines(("3", "w", "#b", "z y"), ("4", "v", "#a", "é x"))
        declined, out = _kernels.read_records(state, text, at)
        assert declined == 1 and out[0].tolist() == [737485, -1] and out[7] == b""
        side = ingest._side_record(str(text[at[1]:], "utf-8"), 2, None)
        _, out = _kernels.read_records(state, text, at, side, [0, len(side)])
        assert out[1].tolist() == [2, 1, 0, 2, 1, 1, 0, 2] and out[2].tolist() == [1, 0]
        assert out[4].tolist() == [2, 1, 3, 0] and out[5] == b"3\n4\n"
        assert out[7] == b"w\n#b\nz\n\xc3\xa9\n" and out[9].tolist() == [0, 1, 3, 3]
    finally:
        _kernels.read_records(state)


@requires_c
@pytest.mark.parametrize("case", ["falling offsets", "offsets past the text",
                                  "a side record too many", "a malformed side record"])
def test_record_reader_rejects_bad_arguments(case):
    line = b'{"post_id": "p", "timestamp": "2020-03-01", "user_id": "u"}\n'
    text, at, side, side_at = line * 2, [0, len(line), 2 * len(line)], b"", [0]
    if case == "falling offsets":
        at = [0, 2 * len(line), len(line)]
    elif case == "offsets past the text":
        at = [0, len(line), 2 * len(line) + 1]
    elif case == "a side record too many":
        side, side_at = b"", [0, 0]
    else:  # a declined line whose side record lacks its hashtag and text
        side = b"737485:0:1:0:2:p11:u"
        text, at, side_at = b"x\n", [0, 2], [0, len(side)]
    state = np.zeros(_kernels.READER_SLOTS, np.int64)
    with pytest.raises(ValueError):
        _kernels.read_records(state, text, at, side, side_at)
    _kernels.read_records(state)
