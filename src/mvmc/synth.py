"""Synthetic data for desk-scale validation: planted-partition multi-view
graphs and a small multi-day post corpus with shifting hashtag groups."""
from __future__ import annotations

import numpy as np

from .graph import GraphUsageError, ViewGraph
from datetime import datetime, timezone


def planted_partition_graph(
    labels: np.ndarray, p_in: float, p_out: float, rng: np.random.Generator
) -> ViewGraph:
    """Sample an undirected unit-weight graph with block structure, drawing
    one uniform per pair (i, j > i) in row-major order."""
    n = len(labels)
    hits = []
    for i in range(n):
        p = np.where(labels[i + 1:] == labels[i], p_in, p_out)
        hits.append(i + 1 + np.flatnonzero(rng.random(n - 1 - i) < p))
    rows = np.repeat(np.arange(n), [len(h) for h in hits])
    cols = np.concatenate([np.zeros(0, np.int64), *hits])
    return ViewGraph.from_arrays(n, rows, cols, np.ones(len(cols)))


def planted_partition_views(
    n: int,
    n_blocks: int,
    p_in: float,
    p_out: float,
    n_views: int = 2,
    n_noise_views: int = 0,
    seed: int = 0,
) -> tuple[list[ViewGraph], np.ndarray]:
    """Informative views share one planted partition; noise views have the
    same expected density but no block structure (p_in = p_out)."""
    if not (0 <= p_out < p_in <= 1):
        raise GraphUsageError("need p_in > p_out >= 0")
    if n < n_blocks or n_blocks < 1 or n_views < 1:
        raise GraphUsageError("invalid block spec")
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % n_blocks
    graphs = [planted_partition_graph(labels, p_in, p_out, rng) for _ in range(n_views)]
    # density-matched noise: uniform p equal to the informative views' mean
    p_noise = p_in / n_blocks + p_out * (1 - 1 / n_blocks)
    for _ in range(n_noise_views):
        graphs.append(planted_partition_graph(np.zeros(n), p_noise, p_noise, rng))
    return graphs, labels


def synthetic_corpus(seed: int = 0, posts_per_day: int = 70) -> list[dict]:
    """Three synthetic days of posts, as JSON input objects, with planted
    topical hashtag groups.

    Days 1 and 2 share the same three groups; on day 3 the membership of two
    groups is reshuffled, so day-3 clusterings should diverge from days 1-2.
    """
    rng = np.random.default_rng(seed)
    groups = {
        "a": [f"tagA{i}" for i in range(6)],
        "b": [f"tagB{i}" for i in range(6)],
        "c": [f"tagC{i}" for i in range(6)],
    }
    vocab = {
        "a": ["health", "masks", "hospital", "doctors", "vaccine"],
        "b": ["markets", "economy", "stocks", "jobs", "trade"],
        "c": ["school", "students", "teachers", "online", "classes"],
    }
    users = {g: [f"user_{g}{i}" for i in range(8)] for g in groups}
    urls = {g: [f"https://example.org/{g}/{i}" for i in range(4)] for g in groups}

    # day 3: half of group a swaps with half of group b
    shifted = {
        "a": groups["a"][:3] + groups["b"][3:],
        "b": groups["b"][:3] + groups["a"][3:],
        "c": groups["c"],
    }

    records = []
    pid = 0
    for day_idx, day_groups in enumerate([groups, groups, shifted]):
        stamp = datetime(2020, 3, 1 + day_idx, tzinfo=timezone.utc)
        for _ in range(posts_per_day):
            g = ["a", "b", "c"][rng.integers(3)]
            tags = rng.choice(day_groups[g], size=3, replace=False).tolist()
            words = list(rng.choice(vocab[g], size=4, replace=True))
            text = " ".join(words) + f" #{tags[0]} https://t.co/x{pid}"
            records.append({
                "post_id": f"p{pid}",
                "timestamp": stamp.replace(hour=int(rng.integers(24))).isoformat(),
                "user_id": str(rng.choice(users[g])),
                "text": text,
                "hashtags": tags,
                "urls": [str(rng.choice(urls[g]))],
            })
            pid += 1
    return records
