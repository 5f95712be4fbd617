"""Turning raw post records into the four daily hashtag views.

Views per day: accompanying text tokens, posting users, co-occurring URLs,
and hashtag co-occurrence. Hashtags used in fewer than 3 distinct posts are
dropped; hashtag matching is case-sensitive. Posts are coded as they are
read, each text as its `preprocess_text` tokens. With the compiled kernels, a
.jsonl or .tsv file is read in batches of lines from `readlines(READ_BATCH)`,
each parsed and coded by one call of `_kernels.read_records` (see
`_read_batches`); without them, `group_by_day` codes the parsed lines one
by one.
"""
from __future__ import annotations

import json
import re
from array import array
from dataclasses import dataclass
from datetime import date, datetime, timezone
from urllib.parse import urlparse

import numpy as np

from . import _kernels
from .views import _SEPARATOR_RE, ViewMatrix

MIN_POSTS_PER_HASHTAG = 3
# the size hint, in characters, of the `readlines` batch of lines that one
# call of the compiled reader takes
READ_BATCH = 1 << 17

_URL_RE = re.compile(r"(?:https?://|www\.)\S+")
_HASHTAG_RE = re.compile(r"#\S+")
_MENTION_RE = re.compile(r"@\w+")
_RT_RE = re.compile(r"\bRT\b")
# maximal runs of letters (L*) and numbers (N*): \w without the underscore
_WORD_RE = re.compile(r"[^\W_]+")


class RecordError(ValueError):
    """Raised for malformed input records."""


@dataclass(frozen=True)
class PostCodes:
    """One day's posts as int codes, in post order: what the views and the
    period reports count.

    The hashtags of the registry (those in `MIN_POSTS_PER_HASHTAG` or more
    distinct posts) come first. Users and tokens are coded in first-appearance
    order among the posts that hold a registry hashtag, then among the other
    posts, so each view's column names are a prefix of its code list.
    """

    hashtags: tuple[str, ...]
    n_registry: int
    tag_post: np.ndarray  # the post of each distinct (post, hashtag) pair
    tag_code: np.ndarray  # the hashtag of each pair
    users: tuple[str, ...]
    user_code: np.ndarray  # the user of each post
    tokens: tuple[str, ...]
    token_code: np.ndarray  # every post's tokens, one post after another
    token_len: np.ndarray  # the number of tokens of each post


@dataclass(frozen=True)
class DailyViews:
    """The four views of one day, sharing a single hashtag row registry, and
    the day's posts as codes for the period reports."""

    day: date
    text_view: ViewMatrix
    user_view: ViewMatrix
    url_view: ViewMatrix
    cooccur_view: ViewMatrix
    codes: PostCodes

    def as_list(self) -> list[ViewMatrix]:
        return [self.text_view, self.user_view, self.url_view, self.cooccur_view]

    @property
    def hashtags(self) -> tuple[str, ...]:
        return self.text_view.row_names


VIEW_NAMES = ("text", "user", "url", "cooccur")


def preprocess_text(raw: str) -> list[str]:
    """Strip hashtags, URLs, mentions and retweet markers, then split into
    maximal runs of letters and numbers, each lowercased.

    Each character is lowercased on its own, so a token holding `Σ` skips the
    final-sigma rule of `str.lower` and always gets `σ`.
    """
    # each pass runs only when its marker occurs; a pass leaves a space where
    # it removes text, so it never makes a marker for a later pass
    text = raw
    if "http" in text or "www." in text:
        text = _URL_RE.sub(" ", text)
    if "#" in text:
        text = _HASHTAG_RE.sub(" ", text)
    if "@" in text:
        text = _MENTION_RE.sub(" ", text)
    if "RT" in text:
        text = _RT_RE.sub(" ", text)
    return [
        tok.lower() if "Σ" not in tok else "".join(map(str.lower, tok))
        for tok in _WORD_RE.findall(text)
    ]


def _parse_timestamp(value: str) -> datetime:
    if not isinstance(value, str):
        raise RecordError(f"timestamp {value!r} is not a string")
    ts = datetime.fromisoformat(value.replace("Z", "+00:00"))
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc)


def _names(key: str, value, nonempty: bool) -> list:
    """`value` checked to be a list of strings, non-empty ones if `nonempty`."""
    if not (isinstance(value, list)
            and all(isinstance(v, str) and (v or not nonempty) for v in value)):
        kind = "non-empty strings" if nonempty else "strings"
        raise RecordError(f"{key} is not an array of {kind}: {value!r}")
    return value


def _record(post_id, timestamp, user_id, text, hashtags, urls) -> tuple:
    """The checked fields of a post that both readers build, as (post_id,
    timestamp, user_id, text, hashtags, urls): ids and text each a string or
    a number (not null or a bool), `hashtags` a list of non-empty strings,
    `urls` a list of strings whose empty ones are dropped, and no tab or line
    break in a user id, hashtag or URL. The timestamp is an ISO 8601 string,
    in UTC where it names no zone, and is converted to UTC. The checks run in
    the order ids and text, hashtags, URLs, timestamp, separators, and the
    first fault raises `RecordError`."""
    # the common case, checked at once: string ids and text, lists of
    # strings, no empty hashtag and no separator in a name; anything else,
    # and a bad timestamp, is left to the checks below for their message
    if (type(post_id) is type(user_id) is type(text) is str
            and type(hashtags) is type(urls) is list and "" not in hashtags):
        try:
            if not _SEPARATOR_RE.search(" ".join([user_id, *hashtags, *urls])):
                return (post_id, _parse_timestamp(timestamp), user_id, text,
                        tuple(hashtags), tuple(filter(None, urls)))
        except (TypeError, ValueError, OverflowError):
            pass
    try:
        for key, value in (("post_id", post_id), ("user_id", user_id), ("text", text)):
            # a JSON bool is not an int here, and a null is not the string "None"
            if type(value) not in (str, int, float):
                raise RecordError(f"{key} is null" if value is None
                                  else f"{key} is not a string or a number")
        hashtags = tuple(_names("hashtags", hashtags, nonempty=True))
        urls = tuple(filter(None, _names("urls", urls, nonempty=False)))
        fields = (str(post_id), _parse_timestamp(timestamp), str(user_id), str(text),
                  hashtags, urls)
    except (ValueError, OverflowError) as exc:  # overflow: UTC year outside 1..9999
        raise RecordError(f"bad record: {exc}") from exc
    # names are written one per line and tab-separated in the view files
    for name in (fields[2], *hashtags, *urls):
        if _SEPARATOR_RE.search(name):
            raise RecordError(f"tab or line break in {name!r}")
    return fields


def parse_json_record(line: str) -> tuple:
    """One line-delimited JSON object with the fields of `_record`, as its
    checked tuple; `text`, `hashtags` and `urls` may be left out."""
    obj = json.loads(line)
    try:
        fields = obj["post_id"], obj["timestamp"], obj["user_id"]
    except (KeyError, TypeError) as exc:
        raise RecordError(f"bad record: {exc}") from exc
    return _record(*fields, obj.get("text", ""), obj.get("hashtags", []), obj.get("urls", []))


def parse_tsv_record(line: str) -> tuple:
    """TSV fallback: post_id, timestamp, user_id, text, hashtags, urls (the
    last two comma-separated, may be empty; empty items are dropped)."""
    parts = line.rstrip("\n").split("\t")
    if len(parts) != 6:
        raise RecordError(f"expected 6 TSV fields, got {len(parts)}")
    post_id, ts, user, text, tags, urls = parts
    return _record(post_id, ts, user, text, list(filter(None, tags.split(","))), urls.split(","))


def _check_utf8(line: str) -> None:
    try:
        line.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise RecordError(f"not valid UTF-8 at column {exc.start + 1}") from None


def _parse_line(parse, lineno: int, line: str, on_error):
    """The record of a line, or None for a blank line and for a malformed one
    or one that is not valid UTF-8, which goes to on_error."""
    if not line.strip():
        return None
    try:
        _check_utf8(line)
        return parse(line)
    except (RecordError, json.JSONDecodeError) as exc:
        if on_error is not None:
            on_error(lineno, str(exc))
        return None


class _Names(dict):
    """A name table: each new name gets the next int code."""

    def __init__(self):
        super().__init__()
        self.names = []

    def __missing__(self, name):
        code = self[name] = len(self.names)
        self.names.append(name)
        return code


class PostCorpus:
    """Name tables shared by the days of one `group_by_day` call: each new
    user, hashtag, URL and token gets the next int code."""

    def __init__(self):
        self.users, self.hashtags, self.urls, self.tokens = (_Names() for _ in range(4))


class CorpusDay:
    """One day's posts in read order, as int codes into its corpus's tables:
    per post its id (coded within the day), its user, and the number of its
    distinct hashtags, of its URLs and of its tokens; and those hashtags,
    URLs and tokens, one post after another."""

    def __init__(self, corpus: PostCorpus):
        self.corpus = corpus
        self.ids: dict = {}
        self.post_id, self.user = array("i"), array("i")
        self.tags, self.n_tags = array("i"), array("i")
        self.urls, self.n_urls = array("i"), array("i")
        self.tokens, self.n_tokens = array("i"), array("i")

    def __len__(self) -> int:
        return len(self.user)

    def add(self, post_id, user_id, text, hashtags, urls) -> None:
        """Code one post, its text as its `preprocess_text` tokens; a hashtag
        repeated in it counts once."""
        corpus = self.corpus
        self.post_id.append(self.ids.setdefault(post_id, len(self.ids)))
        self.user.append(corpus.users[user_id])
        tags = dict.fromkeys(hashtags)
        self.tags.extend(map(corpus.hashtags.__getitem__, tags))
        self.n_tags.append(len(tags))
        self.urls.extend(map(corpus.urls.__getitem__, urls))
        self.n_urls.append(len(urls))
        tokens = preprocess_text(text)
        self.tokens.extend(map(corpus.tokens.__getitem__, tokens))
        self.n_tokens.append(len(tokens))


def group_by_day(records) -> dict[date, CorpusDay]:
    """Checked record tuples (from `parse_json_record` or `parse_tsv_record`)
    coded into one `PostCorpus`, each post as it comes, as one `CorpusDay`
    per date in date order."""
    corpus = PostCorpus()
    days: dict[date, CorpusDay] = {}
    for post_id, timestamp, user_id, text, hashtags, urls in records:
        day = days.get(timestamp.date())
        if day is None:
            day = days[timestamp.date()] = CorpusDay(corpus)
        day.add(post_id, user_id, text, hashtags, urls)
    return dict(sorted(days.items()))


def _side_record(line: str, lineno: int, on_error, parse) -> bytes:
    """A line that the compiled reader declined, parsed by `parse`
    (`parse_json_record` or `parse_tsv_record`, the reader's format), as the
    side record that the reader codes in its place (see read_records in
    _move_pass.c); b"" for a blank or malformed line. A non-ASCII text goes
    as its `preprocess_text` tokens joined by spaces."""
    record = _parse_line(parse, lineno, line, on_error)
    if record is None:
        return b""
    post_id, timestamp, user_id, text, hashtags, urls = record
    split = not text.isascii()
    fields = (post_id, user_id, *hashtags, *urls,
              " ".join(preprocess_text(text)) if split else text)
    head = f"{timestamp.toordinal()}:{split:d}:{len(hashtags)}:{len(urls)}:".encode()
    return head + b"".join(
        [b"%d:%s" % (len(f), f) for f in (f.encode("utf-8", "surrogatepass") for f in fields)])


def _strings(data, at) -> list:
    """The strings in data (UTF-8 with lone surrogates passed), each followed
    by a newline, string i from at[i] - at[0] on."""
    strings = str(data, "utf-8", "surrogatepass").split("\n")[:-1]
    if len(strings) == len(at) - 1:
        return strings
    at = (at - at[0]).tolist()  # a side record's string holds a newline
    return [str(data[a:b - 1], "utf-8", "surrogatepass") for a, b in zip(at, at[1:])]


def _add_batch(corpus: PostCorpus, days: dict, line_day, rows, tags, urls, tokens, ids, id_at,
               names, name_at, keys) -> None:
    """Add a batch that `_kernels.read_records` coded: its new names, which
    take the next codes of their tables, as the reader gave them, and its
    records, a run of records of one day at a time."""
    tables = (corpus.users, corpus.hashtags, corpus.urls, corpus.tokens)
    for key, name in zip(keys.tolist(), _strings(names, name_at)):
        tables[key][name]  # a new name: the table gives it the next code
    ids, line_day, rows = _strings(ids, id_at), line_day[line_day > 0], rows.reshape(-1, 4)
    at = np.zeros((len(rows) + 1, 3), np.int64)  # where each record's lists start
    np.cumsum(rows[:, 1:], axis=0, out=at[1:])
    runs = np.flatnonzero(np.diff(line_day, prepend=0)).tolist()
    for a, b in zip(runs, [*runs[1:], len(rows)]):
        day = date.fromordinal(int(line_day[a]))
        if day not in days:
            days[day] = CorpusDay(corpus)
        posts, (tag, url, token), (tag_end, url_end, token_end) = days[day], at[a], at[b]
        posts.post_id.extend(posts.ids.setdefault(k, len(posts.ids)) for k in ids[a:b])
        for field, values in (("user", rows[a:b, 0]), ("n_tags", rows[a:b, 1]),
                              ("n_urls", rows[a:b, 2]), ("n_tokens", rows[a:b, 3]),
                              ("tags", tags[tag:tag_end]), ("urls", urls[url:url_end]),
                              ("tokens", tokens[token:token_end])):
            getattr(posts, field).frombytes(values.tobytes())


def _read_batches(fh, tsv: bool, parse, on_error) -> dict[date, CorpusDay]:
    """`group_by_day` of the lines of the .jsonl file `fh`, or of the .tsv
    file if `tsv`, whose lines `parse` parses: one call of
    `_kernels.read_records` per batch of `fh.readlines(READ_BATCH)`, and a
    second when it declines lines, with their `_side_record`s. The reader's
    state lasts from batch to batch."""
    corpus, days, state = PostCorpus(), {}, np.zeros(_kernels.READER_SLOTS, np.int64)
    lineno = 1  # the batch's first line
    try:
        while lines := fh.readlines(READ_BATCH):
            data = "".join(lines).encode("utf-8", "surrogatepass")  # lone surrogates kept
            ends = np.frombuffer(data, np.uint8) == ord("\n")
            ends[-1] = True  # the file's last line may lack its newline
            at = np.concatenate([[0], np.flatnonzero(ends) + 1])
            declined, out = _kernels.read_records(state, data, at, tsv=tsv)
            if declined:
                side = [_side_record(lines[i], lineno + i, on_error, parse)
                        for i in np.flatnonzero(out[0] < 0).tolist()]
                _, out = _kernels.read_records(state, data, at, b"".join(side),
                                               np.cumsum([0, *map(len, side)]), tsv=tsv)
            _add_batch(corpus, days, *out)
            lineno += len(lines)
    finally:
        _kernels.read_records(state)  # frees its memory
    return dict(sorted(days.items()))


def read_posts(path, on_error=None) -> dict[date, CorpusDay]:
    """Read a UTF-8 .jsonl or .tsv corpus, coding each post as it is read,
    into `group_by_day`'s days; malformed lines, and lines that are not valid
    UTF-8, go to on_error and are skipped. The file goes through the compiled
    reader when it loaded, and line by line otherwise."""
    tsv = str(path).endswith(".tsv")
    parse = parse_tsv_record if tsv else parse_json_record
    # surrogateescape keeps undecodable bytes as lone surrogates, so one bad
    # line is reported on its own instead of failing the whole read
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        if _kernels.read_records is not None:
            return _read_batches(fh, tsv, parse, on_error)
        return group_by_day(filter(None, (_parse_line(parse, lineno, line, on_error)
                                          for lineno, line in enumerate(fh, 1))))


def _first(codes: np.ndarray, names: list, order=None) -> tuple[tuple, np.ndarray]:
    """Codes into `names` recoded to first-appearance order, counted within
    codes[order] when given (the same codes in another order), and the names
    of the new codes."""
    uniq, first = np.unique(codes if order is None else codes[order], return_index=True)
    uniq = uniq[np.argsort(first)]
    recode = np.empty(len(names), np.int32)
    recode[uniq] = np.arange(len(uniq), dtype=np.int32)
    return tuple(map(names.__getitem__, uniq.tolist())), recode[codes]


def _ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The ranges [start, start + len), one after another."""
    ends = np.cumsum(lens, dtype=np.int64)
    total = int(ends[-1]) if len(ends) else 0
    return np.repeat(starts - ends + lens, lens) + np.arange(total)


def _starts(lens: np.ndarray) -> np.ndarray:
    """Where each run of a flat array starts, given the run lengths."""
    return np.cumsum(lens, dtype=np.int64) - lens


def _width(col_codes: np.ndarray) -> int:
    """The number of column names that first-appearance codes use."""
    return int(col_codes.max()) + 1 if len(col_codes) else 0


def code_posts(day: CorpusDay) -> PostCodes:
    """Recode one day's posts to the day's first-appearance orders. A hashtag
    repeated in a post counts once there."""
    n = len(day)
    tag_post = np.repeat(np.arange(n, dtype=np.int32), np.array(day.n_tags, np.int32))
    names, tag_code = _first(np.array(day.tags, np.int32), day.corpus.hashtags.names)
    # the registry: hashtags in enough distinct post ids, moved ahead of the
    # others, each part in first-appearance order
    base = max(len(day.ids), 1)
    pairs = np.sort(tag_code.astype(np.int64) * base + np.array(day.post_id, np.int32)[tag_post])
    pairs = pairs[np.diff(pairs, prepend=-1) != 0]  # each pair once; keys are >= 0
    kept = np.bincount(pairs // base, minlength=len(names)) >= MIN_POSTS_PER_HASHTAG
    order = np.concatenate([np.flatnonzero(kept), np.flatnonzero(~kept)])
    recode = np.empty(len(names), np.int32)
    recode[order] = np.arange(len(names))
    tag_code = recode[tag_code]
    n_registry = int(kept.sum())
    holds = np.zeros(n, bool)
    holds[tag_post[tag_code < n_registry]] = True
    first = np.concatenate([np.flatnonzero(holds), np.flatnonzero(~holds)])

    token_len = np.array(day.n_tokens, np.int32)
    tokens, token_code = _first(np.array(day.tokens, np.int32), day.corpus.tokens.names,
                                _ranges(_starts(token_len)[first], token_len[first]))
    users, user_code = _first(np.array(day.user, np.int32), day.corpus.users.names, first)
    return PostCodes(
        tuple(map(names.__getitem__, order.tolist())), n_registry, tag_post, tag_code,
        users, user_code, tokens, token_code, token_len,
    )


def _host(url: str) -> str:
    """A URL's host, or the URL itself where it has none or does not parse."""
    try:
        return urlparse(url).netloc or url
    except ValueError:  # as on the unclosed IPv6 bracket of `http://[::1`
        return url


def build_daily_views(posts: CorpusDay, day: date, url_mode: str = "exact") -> DailyViews:
    """Aggregate one day's posts into the four hashtag views.

    `code_posts` recodes the day's posts to the day's orders, and each view
    is built from the codes: every (registry hashtag, feature) pair of a post
    counts 1.
    url_mode="domain" reduces URLs to their host before counting, for the
    case where exact URLs almost never repeat.
    """
    codes = code_posts(posts)
    registry = codes.hashtags[:codes.n_registry]
    in_registry = codes.tag_code < codes.n_registry
    post, row = codes.tag_post[in_registry], codes.tag_code[in_registry]

    def expand(values, lens):
        """Each pair's row, with every value of its post as the column."""
        take = lens[post]
        return np.repeat(row, take), values[_ranges(_starts(lens)[post], take)]

    # the URLs of the posts that hold a registry hashtag, in post order
    holds = np.zeros(len(posts), bool)
    holds[post] = True
    n_urls = np.array(posts.n_urls, np.int32)
    urls = np.array(posts.urls, np.int32)[_ranges(_starts(n_urls)[holds], n_urls[holds])]
    url_names = posts.corpus.urls.names
    if url_mode == "domain":  # each distinct URL reduced to its host once
        distinct, inverse = np.unique(urls, return_inverse=True)
        hosts = _Names()
        urls = np.array([hosts[_host(u)]
                         for u in map(url_names.__getitem__, distinct.tolist())], np.int32)[inverse]
        url_names = hosts.names
    url_names, url_code = _first(urls, url_names)

    text_r, text_c = expand(codes.token_code, codes.token_len)
    user_c = codes.user_code[post]
    url_r, url_c = expand(url_code, n_urls * holds)
    co_r, co_c = expand(row, np.bincount(post, minlength=len(posts)))
    other = co_r != co_c
    return DailyViews(
        day,
        ViewMatrix.from_codes(text_r, text_c, registry, codes.tokens[:_width(text_c)]),
        ViewMatrix.from_codes(row, user_c, registry, codes.users[:_width(user_c)]),
        ViewMatrix.from_codes(url_r, url_c, registry, url_names),
        ViewMatrix.from_codes(co_r[other], co_c[other], registry, registry),
        codes,
    )
