"""Comparing clusterings across days: ARI, cross-leveling, meta-clustering."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import GraphUsageError, densify_labels, read_keyed, write_rows

# Label of a day's group of absent objects: `cross_level` gives it to them,
# and `pairwise_ari_matrix` puts entries that carry it in that group. Labels
# are never compared across clusterings, so one reserved constant suffices.
DUMMY_LABEL = "__absent__"

# Most (earlier, later) incidence pairs `pairwise_ari_matrix` holds at once.
PAIR_BLOCK = 1 << 17


@dataclass(frozen=True)
class LabeledClustering:
    """Object-name -> cluster-label mapping with a date tag."""

    assignments: dict
    tag: str = ""

    @property
    def objects(self) -> frozenset:
        return frozenset(self.assignments)

    def write_tsv(self, path) -> None:
        write_rows(path, ((obj, self.assignments[obj]) for obj in sorted(self.assignments)))

    @staticmethod
    def read_tsv(path, tag: str = "") -> "LabeledClustering":
        """Read the `write_tsv` format; labels stay strings. An object listed
        twice raises."""
        rows = read_keyed(path, 2, "object<TAB>label", "object")
        return LabeledClustering({obj: label for obj, (label,) in rows.items()}, tag)


def _pairs(counts: np.ndarray) -> np.ndarray:
    """C(c, 2) of each integer count."""
    return counts * (counts - 1) // 2


def _runs(ordered: np.ndarray) -> np.ndarray:
    """Start index of each run of equal values in a sorted array."""
    starts = np.empty(len(ordered), dtype=bool)
    starts[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    return np.flatnonzero(starts)


def _run_sums(starts: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Sum of `weights` over each run that begins at `starts`."""
    cumulative = np.concatenate(([0], np.cumsum(weights)))
    return np.diff(cumulative[np.append(starts, len(weights))])


def _ari(sum_cells: int, sum_a: int, sum_b: int, total: int) -> float:
    """Hubert-Arabie ARI from exact pair sums, in Python ints.

    int / int true division is correctly rounded, so the index and its
    correction round as `float(Fraction)` would.
    """
    if total == 0:
        return 1.0
    expected = sum_a * sum_b
    spread = (sum_a + sum_b) * total - 2 * expected
    if spread == 0:
        return 1.0
    return ((sum_cells * total - expected) / total) / (spread / (2 * total))


def adjusted_rand_index(a: LabeledClustering, b: LabeledClustering) -> float:
    """Hubert-Arabie ARI with exact integer pair counting.

    1 for identical partitions, ~0 for independent ones, possibly negative.
    Degenerate pairs where the correction denominator vanishes (e.g. both
    partitions trivial) return 1.
    """
    if a.assignments.keys() != b.assignments.keys():
        raise GraphUsageError("clusterings must cover identical object sets")
    return float(pairwise_ari_matrix([a, b])[0, 1])


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


def _tally(keys: np.ndarray, size: int, weights=None) -> tuple[np.ndarray, np.ndarray]:
    """Distinct values of `keys` (each in range(size)), ascending, as int64,
    with the number of times each occurs, or the sum of its positive integer
    weights.

    Counts by bincount when the key range is small next to the keys, else
    by one sort (of int32 copies when they fit, which sort twice as fast);
    both give the same exact result.
    """
    if size <= 4 * len(keys):
        sums = np.bincount(keys, weights, minlength=size)
        distinct = np.flatnonzero(sums)
        return distinct, sums[distinct].astype(np.int64)
    if size <= 1 << 31:
        keys = keys.astype(np.int32)
    if weights is None:
        keys = np.sort(keys)
        starts = _runs(keys)
        return keys[starts].astype(np.int64), np.diff(np.append(starts, len(keys)))
    order = np.argsort(keys)
    keys = keys[order]
    starts = _runs(keys)
    return keys[starts].astype(np.int64), _run_sums(starts, weights[order])


def pairwise_ari_matrix(clusterings: list[LabeledClustering]) -> np.ndarray:
    """Symmetric ARI matrix with unit diagonal, over the union of the objects.

    In each clustering, the objects it lacks and its entries labelled
    DUMMY_LABEL form one dummy group, so the matrix equals that of the
    cross-leveled clusterings. Labels are told apart as dict keys are. Only
    (object, clustering, label) incidences that exist are counted: the
    real x real cells of every pair's contingency table come from the label
    pairs of objects present in both, and the cells of the dummy groups from
    label sizes and per-(label, other clustering) overlaps. The work grows
    with the sum over objects of the square of the number of clusterings
    holding them; the label pairs are counted in blocks of consecutive
    earlier clusterings of at most PAIR_BLOCK pairs (or one clustering), so
    memory stays bounded when objects persist through many clusterings.
    """
    k = len(clusterings)
    if k < 2:
        return np.eye(k)
    index: dict = {}
    objs, labels, first_label = [], [], [0]
    for c in clusterings:
        obj = densify_labels(c.assignments, index)
        # DUMMY_LABEL takes code 0, so after the shift it is -1 and the real
        # labels count from 0 in first-appearance order
        codes = {DUMMY_LABEL: 0}
        label = densify_labels(c.assignments.values(), codes) - 1
        real = label >= 0
        objs.append(obj[real])
        labels.append(label[real] + first_label[-1])
        first_label.append(first_label[-1] + len(codes) - 1)
    n = len(index)
    n_labels = first_label[-1]
    label_day = np.repeat(np.arange(k), np.diff(first_label))
    present = np.array([len(o) for o in objs])
    day_start = np.concatenate(([0], np.cumsum(present)))
    obj, label = np.concatenate(objs), np.concatenate(labels)
    sizes = np.bincount(label, minlength=n_labels)
    real_sums = _run_sums(np.array(first_label[:-1]), _pairs(sizes))

    # each incidence's place among its object's incidences, which stay in day order
    order = np.argsort(obj, kind="stable")
    by_obj = label[order]
    bounds = np.append(_runs(obj[order]), len(obj))
    position = np.empty_like(order)
    position[order] = np.arange(len(order))
    later = (np.repeat(bounds[1:], np.diff(bounds)) - 1 - np.arange(len(obj)))[position]
    pairs_before = np.concatenate(([0], np.cumsum(later)))[day_start]

    real_cells = np.zeros((k, k), dtype=np.int64)
    shared = np.zeros((k, k), dtype=np.int64)
    dummy_cells = np.zeros((k, k), dtype=np.int64)
    real_flat, shared_flat, dummy_flat = real_cells.ravel(), shared.ravel(), dummy_cells.ravel()

    def add_dummy_cells(own, other, overlap):
        # a real label's dummy cell against another day is its size less its overlap
        np.add.at(dummy_flat, label_day[own] * k + other,
                  _pairs(sizes[own] - overlap) - _pairs(sizes[own]))

    a0 = 0
    while pairs_before[a0] < pairs_before[-1]:
        # label pairs of each (earlier day in [a0, a1), later day) incidence pair,
        # keyed by the earlier label's offset in the high bits, the later one's in the low
        a1 = max(a0 + 1, int(np.searchsorted(
            pairs_before, pairs_before[a0] + PAIR_BLOCK, side="right")) - 1)
        counts = later[day_start[a0]:day_start[a1]]
        starts = position[day_start[a0]:day_start[a1]]
        a_first, b_first = first_label[a0], first_label[a0 + 1]
        shift = int(n_labels - b_first - 1).bit_length()
        second = np.arange(pairs_before[a1] - pairs_before[a0])
        second += np.repeat(starts + 1 - (np.cumsum(counts) - counts), counts)
        keys = np.repeat(((by_obj[starts] - a_first) << shift) - b_first, counts)
        keys += by_obj[second]
        cells, counts = _tally(keys, (first_label[a1] - a_first) << shift)
        label_a = (cells >> shift) + a_first
        label_b = (cells & ((1 << shift) - 1)) + b_first
        day_a, day_b = label_day[label_a], label_day[label_b]
        # the cells are sorted by earlier label, then by later day
        runs = _runs(label_a * k + day_b)
        own, other, overlap = label_a[runs], day_b[runs], _run_sums(runs, counts)
        day_pair = label_day[own] * k + other
        np.add.at(real_flat, day_pair, _run_sums(runs, _pairs(counts)))
        np.add.at(shared_flat, day_pair, overlap)
        add_dummy_cells(own, other, overlap)
        shift = int(a1 - a0 - 1).bit_length()
        keys, overlap = _tally(((label_b - b_first) << shift) + day_a - a0,
                               (n_labels - b_first) << shift, counts)
        add_dummy_cells((keys >> shift) + b_first, (keys & ((1 << shift) - 1)) + a0, overlap)
        a0 = a1

    shared = shared + shared.T
    sum_cells = (
        real_cells + real_cells.T + dummy_cells + dummy_cells.T
        + real_sums[:, None] + real_sums[None, :]
        + _pairs(n - present[:, None] - present[None, :] + shared)
    ).tolist()
    sums = (real_sums + _pairs(n - present)).tolist()
    total = n * (n - 1) // 2
    matrix = np.eye(k)
    for i in range(k):
        for j in range(i + 1, k):
            matrix[i, j] = matrix[j, i] = _ari(sum_cells[i][j], sums[i], sums[j], total)
    return matrix


def write_ari_matrix(matrix: np.ndarray, tags: list[str], path) -> None:
    rows = np.asarray(matrix, dtype=np.float64).tolist()
    write_rows(path, ((tag, *row) for tag, row in zip(tags, rows)), "\t" + "\t".join(tags))


def average_linkage_merges(distance: np.ndarray) -> list[tuple[int, int, int, float]]:
    """Full average-linkage merge sequence on a symmetric distance matrix.

    Returns (step, left_id, right_id, height) rows; original items are ids
    0..n-1, the cluster created at step s gets id n+s and keeps the lower
    row of its two parts. Pairs of rows are scanned in row-major order, and a
    pair replaces the best one so far only when it is more than 1e-15 below
    it. Only the upper triangle of `distance` is read.
    """
    n = len(distance)
    dist = np.array(distance, dtype=float)
    upper = np.triu_indices(n, 1)
    dist[upper[1], upper[0]] = dist[upper]
    ids, sizes = list(range(n)), [1] * n
    active = np.arange(n)
    merges = []
    for step in range(n - 1):
        rows, cols = np.triu_indices(len(active), 1)
        vals = dist[active[rows], active[cols]]
        # jump from record to record of the sequential scan
        pos = 0
        while True:
            below = np.flatnonzero(vals[pos + 1:] < vals[pos] - 1e-15)
            if not len(below):
                break
            pos += 1 + int(below[0])
        i, j = int(active[rows[pos]]), int(active[cols[pos]])
        merges.append((step, ids[i], ids[j], float(vals[pos])))
        active = active[active != j]
        others = active[active != i]
        # average linkage: distance to the merged cluster is the size-weighted mean
        merged = (sizes[i] * dist[i, others] + sizes[j] * dist[j, others]) / (sizes[i] + sizes[j])
        dist[i, others] = dist[others, i] = merged
        ids[i], sizes[i] = n + step, sizes[i] + sizes[j]
    return merges


def cut(merges: list[tuple[int, int, int, float]], k: int) -> np.ndarray:
    """Labels of the len(merges) + 1 items after the first n - k merges.

    `merges` is an `average_linkage_merges` result; labels count up from 0 in
    order of each group's first item.
    """
    n = len(merges) + 1
    if not 1 <= k <= n:
        raise GraphUsageError(f"k={k} out of range for {n} clusterings")
    members = {i: [i] for i in range(n)}
    for step, left, right, _h in merges[: n - k]:
        members[n + step] = members.pop(left) + members.pop(right)
    labels = np.empty(n, dtype=np.int64)
    for label, group in enumerate(sorted(members.values(), key=min)):
        labels[group] = label
    return labels


def agglomerative_meta_cluster(matrix: np.ndarray, k: int) -> np.ndarray:
    """Cut average-linkage clustering of distance 1 - ARI at exactly k groups."""
    if not 1 <= k <= len(matrix):
        raise GraphUsageError(f"k={k} out of range for {len(matrix)} clusterings")
    return cut(average_linkage_merges(1.0 - matrix), k)


def write_dendrogram(merges, path) -> None:
    """Merge-list text format: step, left, right, height per row."""
    write_rows(path, ((step, left, right, float(height)) for step, left, right, height in merges),
               "step\tleft\tright\theight")
