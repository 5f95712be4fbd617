"""Comparing clusterings across days: ARI, cross-leveling, meta-clustering."""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graph import GraphUsageError

# Label given to objects absent from a day after cross-leveling. Labels are
# never compared across clusterings, so one reserved constant suffices.
DUMMY_LABEL = "__absent__"


@dataclass(frozen=True)
class LabeledClustering:
    """Object-name -> cluster-label mapping with a date tag."""

    assignments: dict
    tag: str = ""

    @property
    def objects(self) -> frozenset:
        return frozenset(self.assignments)

    def write_tsv(self, path) -> None:
        with open(path, "w") as fh:
            for obj in sorted(self.assignments):
                fh.write(f"{obj}\t{self.assignments[obj]}\n")

    @staticmethod
    def read_tsv(path, tag: str = "") -> "LabeledClustering":
        assignments = {}
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.rstrip("\n")
                if not line:
                    continue
                fields = line.split("\t")
                if len(fields) != 2:
                    raise GraphUsageError(
                        f"{path}:{lineno}: expected object<TAB>label,"
                        f" got {len(fields)} field(s)"
                    )
                assignments[fields[0]] = fields[1]
        return LabeledClustering(assignments, tag)


def _pair_sum(counts: np.ndarray) -> int:
    """Exact sum of C(c, 2) over integer counts."""
    return int((counts * (counts - 1) // 2).sum())


def _encode(clusterings: list[LabeledClustering]) -> list[tuple[np.ndarray, int, int]]:
    """(label codes, label count, pair sum) per clustering, one object order.

    Codes follow the iteration order of the first clustering's objects, and
    labels are told apart as dict keys are, so ARI sees the same partitions.
    """
    if not clusterings:
        return []
    order = list(clusterings[0].assignments)
    keys = clusterings[0].assignments.keys()
    encoded = []
    for c in clusterings:
        if c.assignments.keys() != keys:
            raise GraphUsageError("clusterings must cover identical object sets")
        index: dict = {}
        codes = np.fromiter(
            (index.setdefault(c.assignments[o], len(index)) for o in order),
            dtype=np.int64,
            count=len(order),
        )
        encoded.append((codes, len(index), _pair_sum(np.bincount(codes))))
    return encoded


def _ari(a: tuple[np.ndarray, int, int], b: tuple[np.ndarray, int, int]) -> float:
    """Hubert-Arabie ARI of two encodings from one `_encode` call."""
    codes_a, k_a, sum_a = a
    codes_b, k_b, sum_b = b
    n = len(codes_a)
    # only occupied cells are counted, never a k_a x k_b table
    sum_cells = _pair_sum(np.unique(codes_a * k_b + codes_b, return_counts=True)[1])
    total = n * (n - 1) // 2
    if total == 0:
        return 1.0
    expected = Fraction(sum_a * sum_b, total)
    max_index = Fraction(sum_a + sum_b, 2)
    if max_index == expected:
        return 1.0
    return float(Fraction(sum_cells) - expected) / float(max_index - expected)


def adjusted_rand_index(a: LabeledClustering, b: LabeledClustering) -> float:
    """Hubert-Arabie ARI with exact integer pair counting.

    1 for identical partitions, ~0 for independent ones, possibly negative.
    Degenerate pairs where the correction denominator vanishes (e.g. both
    partitions trivial) return 1.
    """
    return _ari(*_encode([a, b]))


def cross_level(clusterings: list[LabeledClustering]) -> list[LabeledClustering]:
    """Extend every clustering to the union of objects with a dummy label."""
    if len(clusterings) < 2:
        raise GraphUsageError("cross-leveling needs at least two clusterings")
    universe: set = set()
    for c in clusterings:
        universe |= c.objects
    out = []
    for c in clusterings:
        extended = dict(c.assignments)
        for obj in universe - c.objects:
            extended[obj] = DUMMY_LABEL
        out.append(LabeledClustering(extended, c.tag))
    return out


def pairwise_ari_matrix(clusterings: list[LabeledClustering]) -> np.ndarray:
    """Symmetric ARI matrix with unit diagonal; inputs must be cross-leveled."""
    encoded = _encode(clusterings)
    k = len(encoded)
    matrix = np.eye(k)
    for i in range(k):
        for j in range(i + 1, k):
            matrix[i, j] = matrix[j, i] = _ari(encoded[i], encoded[j])
    return matrix


def write_ari_matrix(matrix: np.ndarray, tags: list[str], path) -> None:
    with open(path, "w") as fh:
        fh.write("\t" + "\t".join(tags) + "\n")
        for tag, row in zip(tags, matrix):
            fh.write(tag + "\t" + "\t".join(repr(float(x)) for x in row) + "\n")


def average_linkage_merges(distance: np.ndarray) -> list[tuple[int, int, int, float]]:
    """Full average-linkage merge sequence on a symmetric distance matrix.

    Returns (step, left_id, right_id, height) rows; original items are ids
    0..n-1, the cluster created at step s gets id n+s. Ties are broken by
    the smallest (i, j) pair of cluster ids.
    """
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
        # average linkage: distance to the merged cluster is the size-weighted mean
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


def cut(merges: list[tuple[int, int, int, float]], k: int) -> np.ndarray:
    """Labels of the len(merges) + 1 items after the first n - k merges.

    `merges` is an `average_linkage_merges` result; labels count up from 0 in
    order of each group's first item.
    """
    n = len(merges) + 1
    if not 1 <= k <= n:
        raise GraphUsageError(f"k={k} out of range for {n} clusterings")
    parent = list(range(2 * n - 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for step, left, right, _h in merges[: n - k]:
        parent[left] = parent[right] = n + step
    roots = {}
    labels = np.empty(n, dtype=np.int64)
    for i in range(n):
        root = find(i)
        if root not in roots:
            roots[root] = len(roots)
        labels[i] = roots[root]
    return labels


def agglomerative_meta_cluster(matrix: np.ndarray, k: int) -> np.ndarray:
    """Cut average-linkage clustering of distance 1 - ARI at exactly k groups."""
    if not 1 <= k <= len(matrix):
        raise GraphUsageError(f"k={k} out of range for {len(matrix)} clusterings")
    return cut(average_linkage_merges(1.0 - matrix), k)


def write_dendrogram(merges, path) -> None:
    """Merge-list text format: step, left, right, height per row."""
    with open(path, "w") as fh:
        fh.write("step\tleft\tright\theight\n")
        for step, left, right, height in merges:
            fh.write(f"{step}\t{left}\t{right}\t{height!r}\n")
