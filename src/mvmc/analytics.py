"""Per-cluster and per-hashtag user-base metrics."""
from __future__ import annotations

import heapq
import math

import numpy as np

from .graph import GraphUsageError, densify_labels


def top_users(usage: dict[str, float], fraction: float = 1 / 3) -> frozenset:
    """The ceil(fraction * U) heaviest users of one hashtag.

    Ties on count are broken by user id ordering.
    """
    if not 0 < fraction <= 1:
        raise GraphUsageError("fraction must be in (0, 1]")
    if not usage:
        return frozenset()
    take = math.ceil(fraction * len(usage))
    ranked = sorted(usage, key=lambda u: (-usage[u], u))
    return frozenset(ranked[:take])


def top_user_score(
    cluster: list[str], top_user_sets: dict[str, frozenset]
) -> float:
    """Distinct top users across the cluster over the sum of per-hashtag
    top-user set sizes; 1 means fully disjoint user bases."""
    if not cluster:
        raise GraphUsageError("cluster must be nonempty")
    union: set = set()
    denom = 0
    for h in cluster:
        s = top_user_sets[h]
        union |= s
        denom += len(s)
    if denom == 0:
        return 1.0
    return len(union) / denom


def unique_user_ratio(usage: dict[str, float]) -> float:
    """Distinct users over total uses for one hashtag."""
    total = sum(usage.values())
    if total <= 0:
        raise GraphUsageError("hashtag has no uses")
    return len(usage) / total


def cluster_report_rows(
    clusters: dict[str, list[str]],
    usage: dict[str, dict[str, float]],
    fraction: float = 1 / 3,
) -> list[tuple[str, int, int, float]]:
    """(cluster, size, unique top users, top_user_score) per cluster."""
    tops = {h: top_users(usage.get(h, {}), fraction) for hs in clusters.values() for h in hs}
    rows = []
    for label in sorted(clusters):
        hashtags = clusters[label]
        union = set().union(*(tops[h] for h in hashtags)) if hashtags else set()
        rows.append(
            (label, len(hashtags), len(union), top_user_score(hashtags, tops))
        )
    return rows


def hashtag_report_rows(
    usage: dict[str, dict[str, float]]
) -> list[tuple[str, float, int, float]]:
    """(hashtag, uses, unique users, unique_user_ratio) per hashtag."""
    rows = []
    for h in sorted(usage):
        counts = usage[h]
        total = sum(counts.values())
        if total <= 0:
            continue
        rows.append((h, total, len(counts), unique_user_ratio(counts)))
    return rows


def token_frequencies(token_counts: dict[str, int], top_n: int = 20) -> list[tuple[str, int]]:
    """The top_n most frequent text tokens of one cluster's totals, ties
    broken by token.

    Plain-text substitute for word-map figures.
    """
    return heapq.nsmallest(top_n, token_counts.items(), key=lambda kv: (-kv[1], kv[0]))


def _row_dicts(mat, names: tuple, cast) -> list[dict]:
    """Each row of a CSR matrix as {column name: cast(value)}."""
    mat.sum_duplicates()
    indptr, indices = mat.indptr.tolist(), mat.indices.tolist()
    values = list(map(cast, mat.data.tolist()))
    return [
        dict(zip(map(names.__getitem__, indices[lo:hi]), values[lo:hi]))
        for lo, hi in zip(indptr, indptr[1:])
    ]


def usage_tables(days, clusters: dict) -> tuple[dict[str, dict[str, float]], dict]:
    """User and token counts of clustered hashtags over a period, from each
    day's `PostCodes`.

    Every post holding hashtag h counts 1 for (h, the post's user), and 1
    per occurrence of each of its tokens for h's cluster. Returns `usage`,
    {hashtag: {user: float count}} for each hashtag of the clusters that
    some post holds, and {cluster label: {token: int count}}.
    """
    from scipy import sparse

    labels = list(clusters)
    hashtags = [h for label in labels for h in clusters[label]]
    row_of = dict(zip(hashtags, range(len(hashtags))))
    cluster_of = np.repeat(np.arange(len(labels)), [len(clusters[lab]) for lab in labels])
    # period codes of each day's users and tokens, one lookup per distinct name
    user_index: dict = {}
    token_index: dict = {}
    day_maps = [(densify_labels(d.users, user_index), densify_labels(d.tokens, token_index))
                for d in days]
    # (hashtag, user) pairs are few, one per post holding the hashtag, and
    # are counted at the end; token counts are summed day by day as
    # (cluster x post) @ (post x token) products
    user_rows, user_cols = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    tokens = sparse.csr_matrix((len(labels), len(token_index)))
    for d, (user_of, token_of) in zip(days, day_maps):
        pair_row = np.fromiter((row_of.get(h, -1) for h in d.hashtags), np.int64,
                               len(d.hashtags))[d.tag_code]
        held = pair_row >= 0
        rows, posts = pair_row[held], d.tag_post[held]
        user_rows.append(rows)
        user_cols.append(user_of[d.user_code[posts]])
        post_tokens = sparse.csr_matrix(
            (np.ones(len(d.token_code)), token_of[d.token_code],
             np.concatenate(([0], np.cumsum(d.token_len, dtype=np.int64)))),
            shape=(len(d.user_code), len(token_index)))
        tokens = tokens + sparse.csr_matrix(
            (np.ones(len(rows)), (cluster_of[rows], posts)),
            shape=(len(labels), len(d.user_code))) @ post_tokens
    rows = np.concatenate(user_rows)
    users = sparse.csr_matrix((np.ones(len(rows)), (rows, np.concatenate(user_cols))),
                              shape=(len(hashtags), len(user_index)))
    usage = {h: counts for h, counts in zip(hashtags, _row_dicts(users, tuple(user_index), float))
             if counts}
    return usage, dict(zip(labels, _row_dicts(tokens, tuple(token_index), int)))
