"""Turning raw post records into the four daily hashtag views.

Views per day: accompanying text tokens, posting users, co-occurring URLs,
and hashtag co-occurrence. Hashtags used in fewer than 3 distinct posts are
dropped; hashtag matching is case-sensitive.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass
from datetime import date, datetime, timezone
from itertools import chain
from urllib.parse import urlparse

import numpy as np

from .views import ViewMatrix

MIN_POSTS_PER_HASHTAG = 3

_URL_RE = re.compile(r"(?:https?://|www\.)\S+")
_HASHTAG_RE = re.compile(r"#\S+")
_MENTION_RE = re.compile(r"@\w+")
_RT_RE = re.compile(r"\bRT\b")
# maximal runs of letters (L*) and numbers (N*): \w without the underscore
_WORD_RE = re.compile(r"[^\W_]+")
_SEPARATOR_RE = re.compile(r"[\t\n\r]")


class RecordError(ValueError):
    """Raised for malformed input records."""


@dataclass(frozen=True)
class PostRecord:
    post_id: str
    timestamp: datetime
    user_id: str
    text: str
    hashtags: tuple[str, ...]
    urls: tuple[str, ...]

    @property
    def day(self) -> date:
        return self.timestamp.date()


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
    if text.isascii():  # lowering ASCII moves no token boundary
        return _WORD_RE.findall(text.lower())
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


def _record(post_id, timestamp, user_id, text, hashtags, urls) -> PostRecord:
    """The checked post that both readers build: ids and text each a string
    or a number (not null or a bool), `hashtags` a list of non-empty strings,
    `urls` a list of strings whose empty ones are dropped, and no tab or line
    break in a user id, hashtag or URL."""
    try:
        for key, value in (("post_id", post_id), ("user_id", user_id), ("text", text)):
            # a JSON bool is not an int here, and a null is not the string "None"
            if type(value) not in (str, int, float):
                raise RecordError(f"{key} is null" if value is None
                                  else f"{key} is not a string or a number")
        hashtags = tuple(_names("hashtags", hashtags, nonempty=True))
        urls = tuple(filter(None, _names("urls", urls, nonempty=False)))
        record = PostRecord(str(post_id), _parse_timestamp(timestamp), str(user_id),
                            str(text), hashtags, urls)
    except (ValueError, OverflowError) as exc:  # overflow: UTC year outside 1..9999
        raise RecordError(f"bad record: {exc}") from exc
    # names are written one per line and tab-separated in the view files
    for name in (record.user_id, *record.hashtags, *record.urls):
        if _SEPARATOR_RE.search(name):
            raise RecordError(f"tab or line break in {name!r}")
    return record


def parse_json_record(line: str) -> PostRecord:
    """One line-delimited JSON object with the PostRecord fields; `text`,
    `hashtags` and `urls` may be left out."""
    obj = json.loads(line)
    try:
        fields = obj["post_id"], obj["timestamp"], obj["user_id"]
    except (KeyError, TypeError) as exc:
        raise RecordError(f"bad record: {exc}") from exc
    return _record(*fields, obj.get("text", ""), obj.get("hashtags", []), obj.get("urls", []))


def parse_tsv_record(line: str) -> PostRecord:
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


def read_posts(path, on_error=None) -> list[PostRecord]:
    """Read a UTF-8 .jsonl or .tsv corpus; malformed lines, and lines that
    are not valid UTF-8, go to on_error and are skipped."""
    parse = parse_tsv_record if str(path).endswith(".tsv") else parse_json_record
    records = []
    # surrogateescape keeps undecodable bytes as lone surrogates, so one bad
    # line is reported on its own instead of failing the whole read
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                _check_utf8(line)
                records.append(parse(line))
            except (RecordError, json.JSONDecodeError) as exc:
                if on_error is not None:
                    on_error(lineno, str(exc))
    return records


def group_by_day(posts: list[PostRecord]) -> dict[date, list[PostRecord]]:
    days: dict[date, list[PostRecord]] = {}
    for p in posts:
        days.setdefault(p.day, []).append(p)
    return dict(sorted(days.items()))


def _code(items: list, order=None) -> tuple[tuple, np.ndarray]:
    """The distinct items in first-appearance order, within `order` when given
    (the same items in another order), and each item's int32 code."""
    names = tuple(dict.fromkeys(items if order is None else order))
    index = dict(zip(names, range(len(names))))
    return names, np.fromiter(map(index.__getitem__, items), np.int32, len(items))


def _ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The ranges [start, start + len), one after another."""
    ends = np.cumsum(lens, dtype=np.int64)
    total = int(ends[-1]) if len(ends) else 0
    return np.repeat(starts - ends + lens, lens) + np.arange(total)


def _width(col_codes: np.ndarray) -> int:
    """The number of column names that first-appearance codes use."""
    return int(col_codes.max()) + 1 if len(col_codes) else 0


def code_posts(posts: list[PostRecord]) -> PostCodes:
    """Tokenise each post once and code its hashtags, user and tokens; a
    hashtag repeated in a post counts once there."""
    n = len(posts)
    post_tags = [dict.fromkeys(p.hashtags) for p in posts]
    names, tag_code = _code(list(chain.from_iterable(post_tags)))
    tag_post = np.repeat(np.arange(n, dtype=np.int32), np.fromiter(map(len, post_tags), np.int64, n))
    # the registry: hashtags in enough distinct post ids, moved ahead of the
    # others, each part in first-appearance order
    _ids, id_code = _code([p.post_id for p in posts])
    base = max(n, 1)
    pairs = np.unique(tag_code.astype(np.int64) * base + id_code[tag_post])
    kept = np.bincount(pairs // base, minlength=len(names)) >= MIN_POSTS_PER_HASHTAG
    order = np.concatenate([np.flatnonzero(kept), np.flatnonzero(~kept)])
    recode = np.empty(len(names), np.int32)
    recode[order] = np.arange(len(names))
    tag_code = recode[tag_code]
    n_registry = int(kept.sum())
    holds = np.zeros(n, bool)
    holds[tag_post[tag_code < n_registry]] = True
    first = np.concatenate([np.flatnonzero(holds), np.flatnonzero(~holds)]).tolist()

    post_tokens = list(map(preprocess_text, (p.text for p in posts)))
    tokens, token_code = _code(
        list(chain.from_iterable(post_tokens)),
        chain.from_iterable(map(post_tokens.__getitem__, first)),
    )
    user_ids = [p.user_id for p in posts]
    users, user_code = _code(user_ids, map(user_ids.__getitem__, first))
    return PostCodes(
        tuple(map(names.__getitem__, order.tolist())), n_registry, tag_post, tag_code,
        users, user_code, tokens, token_code,
        np.fromiter(map(len, post_tokens), np.int32, n),
    )


def build_daily_views(
    posts: list[PostRecord], day: date, url_mode: str = "exact"
) -> DailyViews:
    """Aggregate one day's posts into the four hashtag views.

    The posts are coded once by `code_posts`, and each view is built from
    the codes: every (registry hashtag, feature) pair of a post counts 1.
    url_mode="domain" reduces URLs to their host before counting, for the
    case where exact URLs almost never repeat.
    """
    if any(p.day != day for p in posts):
        raise RecordError("posts must all fall on the given day")

    codes = code_posts(posts)
    registry = codes.hashtags[:codes.n_registry]
    in_registry = codes.tag_code < codes.n_registry
    post, row = codes.tag_post[in_registry], codes.tag_code[in_registry]

    def expand(values, lens):
        """Each pair's row, with every value of its post as the column."""
        take = lens[post]
        starts = np.cumsum(lens, dtype=np.int64) - lens
        return np.repeat(row, take), values[_ranges(starts[post], take)]

    holds = np.zeros(len(posts), bool)
    holds[post] = True
    post_urls = [p.urls if h else () for p, h in zip(posts, holds.tolist())]
    if url_mode == "domain":
        post_urls = [tuple(urlparse(u).netloc or u for u in us) for us in post_urls]
    url_names, url_code = _code(list(chain.from_iterable(post_urls)))

    text_r, text_c = expand(codes.token_code, codes.token_len)
    user_c = codes.user_code[post]
    url_r, url_c = expand(url_code, np.fromiter(map(len, post_urls), np.int64, len(posts)))
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

