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
from urllib.parse import urlparse

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
class DailyViews:
    """The four views of one day, sharing a single hashtag row registry."""

    day: date
    text_view: ViewMatrix
    user_view: ViewMatrix
    url_view: ViewMatrix
    cooccur_view: ViewMatrix
    post_tokens: tuple[list[str], ...]  # each post's tokens, in post order

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
    ts = datetime.fromisoformat(value.replace("Z", "+00:00"))
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc)


def parse_json_record(line: str) -> PostRecord:
    """One line-delimited JSON record with the PostRecord fields."""
    obj = json.loads(line)
    try:
        record = PostRecord(
            post_id=str(obj["post_id"]),
            timestamp=_parse_timestamp(obj["timestamp"]),
            user_id=str(obj["user_id"]),
            text=str(obj.get("text", "")),
            hashtags=tuple(obj.get("hashtags", [])),
            urls=tuple(obj.get("urls", [])),
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise RecordError(f"bad record: {exc}") from exc
    # names are written one per line and tab-separated in the view files
    for name in (record.user_id, *record.hashtags, *record.urls):
        if _SEPARATOR_RE.search(str(name)):
            raise RecordError(f"tab or line break in {name!r}")
    return record


def parse_tsv_record(line: str) -> PostRecord:
    """TSV fallback: post_id, timestamp, user_id, text, hashtags, urls
    (last two comma-separated, may be empty)."""
    parts = line.rstrip("\n").split("\t")
    if len(parts) != 6:
        raise RecordError(f"expected 6 TSV fields, got {len(parts)}")
    post_id, ts, user, text, tags, urls = parts
    try:
        return PostRecord(
            post_id=post_id,
            timestamp=_parse_timestamp(ts),
            user_id=user,
            text=text,
            hashtags=tuple(t for t in tags.split(",") if t),
            urls=tuple(u for u in urls.split(",") if u),
        )
    except ValueError as exc:
        raise RecordError(f"bad record: {exc}") from exc


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


def build_daily_views(
    posts: list[PostRecord], day: date, url_mode: str = "exact"
) -> DailyViews:
    """Aggregate one day's posts into the four hashtag views.

    Every post is tokenised once; its tokens are kept in `post_tokens`,
    interned through the day's vocabulary. Hashtags, tokens, users and URLs
    are coded as ints in first-appearance order, and each (hashtag, feature)
    pair of a post counts 1. url_mode="domain" reduces URLs to their host
    before counting, for the case where exact URLs almost never repeat.
    """
    if any(p.day != day for p in posts):
        raise RecordError("posts must all fall on the given day")

    post_ids: dict[str, set[str]] = {}
    for p in posts:
        for h in p.hashtags:
            post_ids.setdefault(h, set()).add(p.post_id)
    registry = tuple(h for h, ids in post_ids.items() if len(ids) >= MIN_POSTS_PER_HASHTAG)
    row_code = {h: i for i, h in enumerate(registry)}

    def norm_url(u: str) -> str:
        if url_mode == "domain":
            return urlparse(u).netloc or u
        return u

    vocab: dict[str, str] = {}
    post_tokens = []
    text_code, user_code, url_code = {}, {}, {}
    text_r, text_c, user_r, user_c, url_r, url_c, co_r, co_c = ([] for _ in range(8))
    for p in posts:
        tokens = [vocab.setdefault(tok, tok) for tok in preprocess_text(p.text)]
        post_tokens.append(tokens)
        rows = [row_code[h] for h in dict.fromkeys(p.hashtags) if h in row_code]
        if not rows:
            continue
        toks = [text_code.setdefault(tok, len(text_code)) for tok in tokens]
        user = user_code.setdefault(p.user_id, len(user_code))
        urls = [url_code.setdefault(norm_url(u), len(url_code)) for u in p.urls]
        for r in rows:
            text_r += [r] * len(toks)
            text_c += toks
            user_r.append(r)
            user_c.append(user)
            url_r += [r] * len(urls)
            url_c += urls
            others = [o for o in rows if o != r]
            co_r += [r] * len(others)
            co_c += others

    return DailyViews(
        day,
        ViewMatrix.from_codes(text_r, text_c, registry, tuple(text_code)),
        ViewMatrix.from_codes(user_r, user_c, registry, tuple(user_code)),
        ViewMatrix.from_codes(url_r, url_c, registry, tuple(url_code)),
        ViewMatrix.from_codes(co_r, co_c, registry, registry),
        tuple(post_tokens),
    )
