"""Independent brute-force reference implementations used by the tests.

Everything here is deliberately naive (dense loops, exhaustive enumeration)
and shares no code path with the package.
"""
from __future__ import annotations

import math
import re
import unicodedata
from collections import Counter
from datetime import datetime, timedelta, timezone
from fractions import Fraction
from functools import lru_cache
from urllib.parse import urlparse

import numpy as np
from scipy import sparse


def brute_tfidf(dense: np.ndarray) -> np.ndarray:
    n, m = dense.shape
    out = np.zeros_like(dense, dtype=float)
    for j in range(m):
        df = sum(1 for i in range(n) if dense[i, j] != 0)
        if df == 0:
            continue
        for i in range(n):
            out[i, j] = dense[i, j] * (n / df)
    return out


def brute_cosine(dense: np.ndarray, i: int, j: int) -> float:
    a, b = dense[i], dense[j]
    na, nb = math.sqrt(float(a @ a)), math.sqrt(float(b @ b))
    if na == 0 or nb == 0:
        return 0.0
    return float(a @ b) / (na * nb)


def brute_knn_edges(dense: np.ndarray, k: int) -> dict[tuple[int, int], float]:
    """All-pairs similarity sort, directed top-k, then (A + A^T)/2."""
    n = len(dense)
    directed = np.zeros((n, n))
    for i in range(n):
        sims = []
        for j in range(n):
            if j == i:
                continue
            s = brute_cosine(dense, i, j)
            if s > 1e-12:
                sims.append((-s, j))
        sims.sort()
        for negs, j in sims[:k]:
            directed[i, j] = -negs
    sym = (directed + directed.T) / 2
    edges = {}
    for i in range(n):
        for j in range(i + 1, n):
            if sym[i, j] > 1e-12:
                edges[(i, j)] = sym[i, j]
    return edges


def brute_ari(labels_a, labels_b) -> float:
    """O(n^2) pair counting."""
    n = len(labels_a)
    n11 = n00 = n10 = n01 = 0
    for i in range(n):
        for j in range(i + 1, n):
            same_a = labels_a[i] == labels_a[j]
            same_b = labels_b[i] == labels_b[j]
            if same_a and same_b:
                n11 += 1
            elif same_a:
                n10 += 1
            elif same_b:
                n01 += 1
            else:
                n00 += 1
    total = n11 + n10 + n01 + n00
    if total == 0:
        return 1.0
    expected = (n11 + n10) * (n11 + n01) / total
    max_index = ((n11 + n10) + (n11 + n01)) / 2
    if max_index == expected:
        return 1.0
    return (n11 - expected) / (max_index - expected)


def _pair_sum(counts: np.ndarray) -> int:
    """Exact sum of C(c, 2) over integer counts."""
    return int((counts * (counts - 1) // 2).sum())


def _encode_labels(clusterings) -> list[tuple[np.ndarray, int, int]]:
    """(label codes, label count, pair sum) per clustering, one object order.

    Labels are told apart as dict keys are.
    """
    if not clusterings:
        return []
    order = list(clusterings[0].assignments)
    keys = clusterings[0].assignments.keys()
    encoded = []
    for c in clusterings:
        if c.assignments.keys() != keys:
            raise ValueError("clusterings must cover identical object sets")
        index: dict = {}
        codes = np.fromiter(
            (index.setdefault(c.assignments[o], len(index)) for o in order),
            dtype=np.int64,
            count=len(order),
        )
        encoded.append((codes, len(index), _pair_sum(np.bincount(codes))))
    return encoded


def _encoded_ari(a, b) -> float:
    """Hubert-Arabie ARI of two encodings, with Fraction arithmetic."""
    codes_a, k_a, sum_a = a
    codes_b, k_b, sum_b = b
    n = len(codes_a)
    sum_cells = _pair_sum(np.unique(codes_a * k_b + codes_b, return_counts=True)[1])
    total = n * (n - 1) // 2
    if total == 0:
        return 1.0
    expected = Fraction(sum_a * sum_b, total)
    max_index = Fraction(sum_a + sum_b, 2)
    if max_index == expected:
        return 1.0
    return float(Fraction(sum_cells) - expected) / float(max_index - expected)


def brute_ari_matrix(leveled) -> np.ndarray:
    """ARI matrix of clusterings that cover one object set (cross-leveled),
    one contingency table per pair."""
    encoded = _encode_labels(leveled)
    k = len(encoded)
    matrix = np.eye(k)
    for i in range(k):
        for j in range(i + 1, k):
            matrix[i, j] = matrix[j, i] = _encoded_ari(encoded[i], encoded[j])
    return matrix


def brute_average_linkage(distance) -> list[tuple[int, int, int, float]]:
    """Average linkage by a sequential scan of a pair dict per merge."""
    n = len(distance)
    dist = {}
    for i in range(n):
        for j in range(i + 1, n):
            dist[(i, j)] = float(distance[i, j])
    active = {i: (i, 1) for i in range(n)}  # slot -> (cluster id, size)
    merges = []
    for step in range(n - 1):
        best = None
        for i in sorted(active):
            for j in sorted(active):
                if j <= i:
                    continue
                d = dist[(i, j)]
                if best is None or d < best[0] - 1e-15:
                    best = (d, i, j)
        d, i, j = best
        id_i, size_i = active[i]
        id_j, size_j = active[j]
        merges.append((step, id_i, id_j, d))
        for k in sorted(active):
            if k in (i, j):
                continue
            di = dist[tuple(sorted((i, k)))]
            dj = dist[tuple(sorted((j, k)))]
            dist[tuple(sorted((i, k)))] = (size_i * di + size_j * dj) / (
                size_i + size_j
            )
        del active[j]
        active[i] = (n + step, size_i + size_j)
    return merges


def brute_cut(merges, k: int) -> list[int]:
    """Labels after the first n - k merges, by a union-find over cluster
    ids; groups numbered in order of their first item."""
    n = len(merges) + 1
    parent = list(range(2 * n - 1))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for step, left, right, _h in merges[: n - k]:
        parent[left] = parent[right] = n + step
    roots: dict = {}
    return [roots.setdefault(find(i), len(roots)) for i in range(n)]


def brute_thetas(edges, n, labels):
    """Naive edge/degree counting for one view; edges = [(i, j, w)]."""
    m = sum(w for _, _, w in edges)
    if m == 0:
        return 1.0, 1.0
    deg = [0.0] * n
    e_in = 0.0
    for i, j, w in edges:
        deg[i] += w
        deg[j] += w
        if labels[i] == labels[j]:
            e_in += w
    kappa = {}
    for i in range(n):
        kappa[labels[i]] = kappa.get(labels[i], 0.0) + deg[i]
    null = sum(k * k for k in kappa.values()) / (4 * m)
    small = 1.0 / len(edges)
    t_in = small if e_in == 0 else e_in / null
    t_out = small if e_in == m else (m - e_in) / (m - null)
    return t_in, t_out


def brute_gamma(t_in, t_out):
    if abs(t_in - t_out) < 1e-12:
        return t_in
    return (t_in - t_out) / (math.log(t_in) - math.log(t_out))


def brute_weights(t_ins, t_outs):
    ratios = [math.log(a) - math.log(b) for a, b in zip(t_ins, t_outs)]
    mean = sum(ratios) / len(ratios)
    if abs(mean) < 1e-12:
        return [1.0] * len(ratios)
    return [r / mean for r in ratios]


def brute_top_user_score(top_sets) -> float:
    union = set()
    denom = 0
    for s in top_sets:
        union |= s
        denom += len(s)
    return len(union) / denom if denom else 1.0


@lru_cache(maxsize=None)
def all_partitions(n: int) -> np.ndarray:
    """All set partitions of range(n) as restricted-growth label vectors."""
    parts = []

    def grow(prefix, max_label):
        if len(prefix) == n:
            parts.append(prefix)
            return
        for lab in range(max_label + 2):
            grow(prefix + [lab], max(max_label, lab))

    grow([0], 0)
    return np.array(parts, dtype=np.int64)


def dense_q(adjs, labels, weights, gammas) -> float:
    """Normalized multi-view RB modularity from dense adjacencies, ordered
    pairs including the diagonal null terms."""
    q = 0.0
    for a, w, g in zip(adjs, weights, gammas):
        m2 = a.sum()
        if m2 == 0:
            continue
        deg = a.sum(axis=1)
        same = labels[:, None] == labels[None, :]
        q += w / m2 * float(((a - g * np.outer(deg, deg) / m2) * same).sum())
    return q


def combined_csr(adjs, coeffs, n):
    """scipy's sum of the views' adjacencies scaled by their coefficients,
    skipping zero coefficients: the combined graph `maximize` hands its
    restarts."""
    acc = sparse.csr_matrix((n, n))
    for adj, c in zip(adjs, coeffs):
        if c != 0.0:
            acc = acc + adj * c
    return acc.tocsr()


def exhaustive_best_q(adjs, weights, gammas) -> tuple[float, np.ndarray]:
    """Global optimum of dense_q over every partition (vectorized)."""
    n = adjs[0].shape[0]
    parts = all_partitions(n)
    same = parts[:, :, None] == parts[:, None, :]
    total = np.zeros(len(parts))
    for a, w, g in zip(adjs, weights, gammas):
        m2 = a.sum()
        if m2 == 0:
            continue
        deg = a.sum(axis=1)
        mat = (a - g * np.outer(deg, deg) / m2) * (w / m2)
        total += np.einsum("pij,ij->p", same, mat)
    best = int(np.argmax(total))
    return float(total[best]), parts[best]


def is_local_optimum(adjs, labels, weights, gammas, eps=1e-9) -> bool:
    """No single-node move (to any community or a fresh singleton) improves."""
    labels = np.array(labels)
    base = dense_q(adjs, labels, weights, gammas)
    n = len(labels)
    candidates = set(labels) | {max(labels) + 1}
    for i in range(n):
        original = labels[i]
        for c in candidates:
            if c == original:
                continue
            labels[i] = c
            if dense_q(adjs, labels, weights, gammas) > base + eps:
                labels[i] = original
                return False
        labels[i] = original
    return True


_MARKUP = [re.compile(p) for p in (r"(?:https?://|www\.)\S+", r"#\S+", r"@\w+", r"\bRT\b")]


def brute_preprocess_text(raw: str) -> list[str]:
    """Strip URLs, hashtags, mentions and retweet markers, then keep each
    L*/N* character lowercased on its own and split on everything else."""
    text = raw
    for pattern in _MARKUP:
        text = pattern.sub(" ", text)
    cleaned = []
    for ch in text:
        if unicodedata.category(ch)[0] in ("L", "N"):
            cleaned.append(ch.lower())
        else:
            cleaned.append(" ")
    return "".join(cleaned).split()


def brute_record(post_id, timestamp, user_id, text, hashtags, urls) -> tuple:
    """A post's checked fields as (post_id, timestamp, user_id, text,
    hashtags, urls), or ValueError with the reader's message for the first
    fault, checked in this order:
    - ids and text each a string or a number, not null or a bool; a number
      becomes its string;
    - hashtags a list of non-empty strings, urls a list of strings, whose
      empty ones are dropped;
    - the timestamp an ISO 8601 string ("Z" for UTC, no zone meaning UTC),
      converted to UTC;
    - no tab, newline or carriage return in the user id, a hashtag or a URL.
    """
    scalars = {"post_id": post_id, "user_id": user_id, "text": text}
    for key, value in scalars.items():
        if value is None:
            raise ValueError(f"bad record: {key} is null")
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise ValueError(f"bad record: {key} is not a string or a number")
    if not (isinstance(hashtags, list)
            and all(isinstance(h, str) and len(h) > 0 for h in hashtags)):
        raise ValueError(f"bad record: hashtags is not an array of non-empty strings: {hashtags!r}")
    if not (isinstance(urls, list) and all(isinstance(u, str) for u in urls)):
        raise ValueError(f"bad record: urls is not an array of strings: {urls!r}")
    if not isinstance(timestamp, str):
        raise ValueError(f"bad record: timestamp {timestamp!r} is not a string")
    try:
        local = datetime.fromisoformat(timestamp.replace("Z", "+00:00"))
        offset = local.utcoffset() or timedelta(0)
        utc = (local.replace(tzinfo=None) - offset).replace(tzinfo=timezone.utc)
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"bad record: {exc}") from None
    user = str(user_id)
    kept_urls = [u for u in urls if u != ""]
    for name in [user, *hashtags, *kept_urls]:
        if "\t" in name or "\n" in name or "\r" in name:
            raise ValueError(f"tab or line break in {name!r}")
    return str(post_id), utc, user, str(text), tuple(hashtags), tuple(kept_urls)


def brute_group_by_day(records):
    """The posts of record tuples (post_id, timestamp, user_id, text,
    hashtags, urls) coded one at a time, text included, in read order, as
    `ingest.group_by_day` codes them: ({date: {field: list}}, {table: names})
    in date order. The fields are those of a `CorpusDay` (post ids coded
    within the day); the tables users, hashtags, urls and tokens are shared
    by the days, each new name taking the next code."""
    tables = {"users": {}, "hashtags": {}, "urls": {}, "tokens": {}}

    def code(table, names):
        return [tables[table].setdefault(name, len(tables[table])) for name in names]

    days, ids = {}, {}  # each day's fields, and its post id codes
    for post_id, timestamp, user_id, text, hashtags, urls in records:
        day, day_ids = days.setdefault(timestamp.date(), {}), ids.setdefault(timestamp.date(), {})
        tags, tokens = list(dict.fromkeys(hashtags)), brute_preprocess_text(text)
        for field, values in (("post_id", [day_ids.setdefault(post_id, len(day_ids))]),
                              ("user", code("users", [user_id])),
                              ("tags", code("hashtags", tags)), ("n_tags", [len(tags)]),
                              ("urls", code("urls", urls)), ("n_urls", [len(urls)]),
                              ("tokens", code("tokens", tokens)), ("n_tokens", [len(tokens)])):
            day.setdefault(field, []).extend(values)
    return dict(sorted(days.items())), {table: list(names) for table, names in tables.items()}


def brute_host(url):
    """A URL's host; the URL itself when it has none or urlparse rejects it."""
    try:
        return urlparse(url).netloc or url
    except ValueError:
        return url


def brute_daily_views(posts, url_mode="exact", min_posts=3):
    """One day's four views from dicts keyed by (hashtag, feature) pairs.

    Returns the hashtag registry and, per view (text, user, url, cooccur),
    its column registry and CSR count matrix. A hashtag survives when it is
    in `min_posts` distinct post ids; every registry is in first-appearance
    order over the posts.
    """
    post_ids = {}
    for p in posts:
        for h in set(p.hashtags):
            post_ids.setdefault(h, set()).add(p.post_id)
    registry, kept = [], set()
    for p in posts:
        for h in p.hashtags:
            if h not in kept and len(post_ids[h]) >= min_posts:
                kept.add(h)
                registry.append(h)

    accs = ({}, {}, {}, {})
    for p in posts:
        tags = [h for h in dict.fromkeys(p.hashtags) if h in kept]
        if not tags:
            continue
        tokens = brute_preprocess_text(p.text)
        urls = [brute_host(u) if url_mode == "domain" else u for u in p.urls]
        for h in tags:
            features = (tokens, [p.user_id], urls, [o for o in tags if o != h])
            for acc, feats in zip(accs, features):
                for f in feats:
                    acc[(h, f)] = acc.get((h, f), 0.0) + 1.0

    row = {h: i for i, h in enumerate(registry)}
    views = []
    for i, acc in enumerate(accs):
        cols = registry if i == 3 else list(dict.fromkeys(c for _h, c in acc))
        col = {c: j for j, c in enumerate(cols)}
        mat = sparse.csr_matrix(
            (list(acc.values()), ([row[h] for h, _c in acc], [col[c] for _h, c in acc])),
            shape=(len(registry), len(cols)),
            dtype=np.float64,
        )
        views.append((tuple(cols), mat))
    return tuple(registry), views


def brute_usage_tables(posts, hashtags: set):
    """Per-hashtag user->count dicts and token Counters over a set of posts:
    every post holding hashtag h counts 1.0 for (h, its user) and 1 per
    occurrence of each of its tokens for h."""
    usage, tokens = {}, {}
    for p in posts:
        tags = [h for h in set(p.hashtags) if h in hashtags]
        if not tags:
            continue
        toks = brute_preprocess_text(p.text)
        for h in tags:
            users = usage.setdefault(h, {})
            users[p.user_id] = users.get(p.user_id, 0.0) + 1.0
            tokens.setdefault(h, Counter()).update(toks)
    return usage, tokens


def brute_from_codes(rows, cols, shape):
    """A view's count matrix built by scipy from (row, col) code pairs, each
    pair counting 1, repeated pairs summed."""
    mat = sparse.csr_matrix(
        (np.ones(len(rows)), (rows, cols)), shape=shape, dtype=np.float64
    )
    mat.eliminate_zeros()
    return mat


def brute_write_triplets(view, path):
    """A view's nonzeros as `row<TAB>col<TAB>count` lines, sorted by (row,
    col) with a lexsort and written one line at a time."""
    coo = view.counts.tocoo()
    order = np.lexsort((coo.col, coo.row))
    with open(path, "w", encoding="utf-8") as fh:
        for r, c, v in zip(coo.row[order], coo.col[order], coo.data[order]):
            fh.write(f"{view.row_names[r]}\t{view.col_names[c]}\t{float(v)!r}\n")


def brute_view_graph(n, edges):
    """Per-edge construction of a canonical edge list: u < v, sorted by
    (u, v), weights under 1e-12 dropped. Returns (u, v, w) arrays; raises
    ValueError naming the first bad edge (range, then self-loop, then weight)
    or, after that, the first duplicate pair in sorted order."""
    if n < 0:
        raise ValueError("node count must be nonnegative")
    us, vs, ws = [], [], []
    for i, j, w in edges:
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge ({i},{j}) out of range for n={n}")
        if i == j:
            raise ValueError(f"self-loop at node {i}")
        if not np.isfinite(w) or w < 0:
            raise ValueError(f"bad weight {w} on edge ({i},{j})")
        if w < 1e-12:
            continue
        u, v = (i, j) if i < j else (j, i)
        us.append(u)
        vs.append(v)
        ws.append(float(w))
    u = np.asarray(us, dtype=np.int64)
    v = np.asarray(vs, dtype=np.int64)
    w = np.asarray(ws, dtype=np.float64)
    order = np.lexsort((v, u))
    u, v, w = u[order], v[order], w[order]
    for k in range(1, len(u)):
        if u[k] == u[k - 1] and v[k] == v[k - 1]:
            raise ValueError(f"duplicate edge ({u[k]},{v[k]})")
    return u, v, w


def brute_components(n, edges) -> list[set[int]]:
    """Connected node sets by a union-find over the edge list, ordered by
    their smallest node."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for i, j, _w in edges:
        ri, rj = find(i), find(j)
        parent[max(ri, rj)] = min(ri, rj)
    groups: dict = {}
    for node in range(n):
        groups.setdefault(find(node), set()).add(node)
    return [groups[root] for root in sorted(groups)]


def brute_planted_partition_edges(labels, p_in, p_out, rng):
    """One scalar draw per pair (i, j > i) in row-major order; an edge when
    the draw is under p_in (same label) or p_out (different labels)."""
    n = len(labels)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            p = p_in if labels[i] == labels[j] else p_out
            if rng.random() < p:
                edges.append((i, j))
    return edges


def brute_planted_partition_views(n, n_blocks, p_in, p_out, n_views, n_noise_views, rng):
    """Edge lists of the informative views, block labels i % n_blocks, then
    of the noise views, each pair drawn at the blocks' mean density."""
    labels = [i % n_blocks for i in range(n)]
    views = [brute_planted_partition_edges(labels, p_in, p_out, rng) for _ in range(n_views)]
    p_noise = p_in / n_blocks + p_out * (1 - 1 / n_blocks)
    views += [brute_planted_partition_edges([0] * n, p_noise, p_noise, rng)
              for _ in range(n_noise_views)]
    return views
