"""Scaled synthetic post corpus with planted hashtag groups, for the benchmark.

Each day has `groups` topical groups of `tags_per_group` hashtags. A post
picks one group and carries 1-3 of its hashtags, words mostly from the
group's vocabulary, a user from the group's user pool and a URL from the
group's URL pool. Each day a share `churn` of every group's hashtags is
replaced by hashtags never seen before. The days are split into `periods`
equal runs; at each period boundary the carried-over hashtags are dealt to
groups afresh, so daily clusterings agree within a period and differ across.

`generate` returns the post records (as JSON-ready dicts) and, per day, the
planted group of every hashtag used that day.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone

import numpy as np

VOCAB_PER_GROUP = 40
COMMON_WORDS = 200
TOPICAL_SHARE = 0.7  # chance that a word comes from the post's group vocabulary
USERS_PER_GROUP = 30
URLS_PER_GROUP = 8
MAX_TAGS_PER_POST = 3
EPOCH = datetime(2020, 1, 1, tzinfo=timezone.utc)


@dataclass(frozen=True)
class CorpusSpec:
    groups: int
    tags_per_group: int
    days: int
    posts_per_day: int
    words_per_post: int
    churn: float
    periods: int

    def __post_init__(self):
        if min(self.groups, self.tags_per_group, self.days, self.posts_per_day,
               self.words_per_post, self.periods) < 1:
            raise ValueError("corpus sizes must be positive")
        if not 0.0 <= self.churn <= 1.0:
            raise ValueError("churn must lie in [0, 1]")
        if self.periods > self.days:
            raise ValueError("cannot plant more periods than days")


def day_label(day: int) -> str:
    return (EPOCH + timedelta(days=day)).date().isoformat()


def generate(spec: CorpusSpec, seed: int) -> tuple[list[dict], dict[str, dict[str, int]]]:
    """Posts and per-day planted truth {date: {hashtag: group}}; deterministic per seed."""
    rng = np.random.default_rng(seed)
    g_count, tpg = spec.groups, spec.tags_per_group
    vocab = [[f"w{g}v{i}" for i in range(VOCAB_PER_GROUP)] for g in range(g_count)]
    common = [f"common{i}" for i in range(COMMON_WORDS)]
    next_tag = 0

    def fresh(count):
        nonlocal next_tag
        tags = [f"tag{next_tag + i}" for i in range(count)]
        next_tag += count
        return tags

    members = [fresh(tpg) for _ in range(g_count)]
    n_new = int(round(spec.churn * tpg))
    posts: list[dict] = []
    truth: dict[str, dict[str, int]] = {}
    for day in range(spec.days):
        if day > 0:
            kept = [[m[i] for i in rng.permutation(tpg)[: tpg - n_new]] for m in members]
            if day * spec.periods // spec.days != (day - 1) * spec.periods // spec.days:
                pool = [t for m in kept for t in m]
                pool = [pool[i] for i in rng.permutation(len(pool))]
                kept = [pool[g::g_count] for g in range(g_count)]
            members = [m + fresh(tpg - len(m)) for m in kept]
        n = spec.posts_per_day
        group = rng.integers(g_count, size=n)
        n_tags = np.minimum(rng.integers(1, MAX_TAGS_PER_POST + 1, size=n), tpg)
        tag_order = np.argsort(rng.random((n, tpg)), axis=1)
        topical = rng.random((n, spec.words_per_post)) < TOPICAL_SHARE
        topic_word = rng.integers(VOCAB_PER_GROUP, size=topical.shape)
        common_word = rng.integers(COMMON_WORDS, size=topical.shape)
        user = rng.integers(USERS_PER_GROUP, size=n)
        url = rng.integers(URLS_PER_GROUP, size=n)
        minute = rng.integers(24 * 60, size=n)
        stamp = EPOCH + timedelta(days=day)
        used: dict[str, int] = {}
        for i in range(n):
            g = int(group[i])
            tags = [members[g][j] for j in tag_order[i, : n_tags[i]]]
            words = [
                vocab[g][w] if t else common[c]
                for t, w, c in zip(topical[i], topic_word[i], common_word[i])
            ]
            posts.append({
                "post_id": f"p{len(posts)}",
                "timestamp": (stamp + timedelta(minutes=int(minute[i]))).isoformat(),
                "user_id": f"u{g}_{user[i]}",
                "text": " ".join(words) + " " + " ".join("#" + t for t in tags),
                "hashtags": tags,
                "urls": [f"https://example.org/{g}/{url[i]}"],
            })
            for t in tags:
                used[t] = g
        truth[day_label(day)] = used
    return posts, truth


def write_jsonl(posts: list[dict], path) -> None:
    with open(path, "w") as fh:
        for p in posts:
            fh.write(json.dumps(p) + "\n")
