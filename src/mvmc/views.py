"""View matrices and similarity-graph construction.

A view is a sparse nonnegative object x feature count matrix held as CSR
arrays. Graphs are built by tf-idf weighting, cosine similarity, and
symmetric k-NN sparsification with the average symmetrization A' = (A + A^T) / 2.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import _kernels
from .graph import GraphUsageError, ViewGraph, atomic_write, read_rows

if TYPE_CHECKING:
    from scipy import sparse

# the separators of the tab-separated files that views and registries are in
_SEPARATOR_RE = re.compile(r"[\t\n\r]")


@dataclass(frozen=True, eq=False)
class ViewMatrix:
    """Sparse count matrix as canonical CSR arrays plus name registries for
    rows and columns: columns strictly ascending within each row, entries
    finite and > 0. The arrays are checked, never copied, and made read-only;
    `from_codes` builds views and `from_matrix` converts any scipy matrix."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    row_names: tuple[str, ...]
    col_names: tuple[str, ...]

    def __post_init__(self):
        indptr, indices, data = self.indptr, self.indices, self.data
        if not (indptr.dtype.kind == indices.dtype.kind == "i" and data.dtype == np.float64):
            raise GraphUsageError("view arrays must be integer indptr and indices, float64 data")
        if len(indptr) != len(self.row_names) + 1 or len(indices) and (
                indices.min() < 0 or indices.max() >= len(self.col_names)):
            raise GraphUsageError("registry sizes do not match matrix shape")
        if indptr[0] != 0 or (np.diff(indptr) < 0).any() or not (
                indptr[-1] == len(indices) == len(data)):
            raise GraphUsageError("indptr must rise from 0 to the entry count")
        if not ((data >= 0) & (data < math.inf)).all():  # NaN fails both
            raise GraphUsageError("view entries must be nonnegative and finite")
        if not data.all():
            raise GraphUsageError("view entries must be nonzero")
        rises = np.diff(indices, prepend=-1, append=0) > 0  # entry p over entry p - 1
        rises[indptr] = True  # but a row's first entry follows another row
        if not rises.all():
            raise GraphUsageError("columns must ascend strictly within each row")
        for a in (indptr, indices, data):
            a.flags.writeable = False

    @property
    def n_rows(self) -> int:
        return len(self.row_names)

    @property
    def counts(self) -> sparse.csr_matrix:
        """The view as a scipy CSR matrix over its own arrays."""
        from scipy import sparse

        shape = (len(self.row_names), len(self.col_names))
        return sparse.csr_matrix((self.data, self.indices, self.indptr), shape=shape)

    @staticmethod
    def from_codes(rows, cols, row_names, col_names, counts=None) -> "ViewMatrix":
        """Build from parallel row and column codes, each pair counting 1 or
        its entry of `counts`. Repeated pairs are summed, in input order when
        `counts` is given, and pairs that sum to 0 are dropped."""
        n, ncols = len(row_names), len(col_names)
        rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
        if len(rows) and (rows.min() < 0 or rows.max() >= n
                          or cols.min() < 0 or cols.max() >= ncols):
            raise GraphUsageError("row or column code out of range")
        # each distinct (row, col) key once, ascending: canonical CSR order
        if counts is None:
            keys, sums = np.unique(rows * ncols + cols, return_counts=True)
            data = sums.astype(np.float64)
        else:  # float64 also when empty, where bincount gives int64
            keys, inverse = np.unique(rows * ncols + cols, return_inverse=True)
            data = np.bincount(inverse, counts, len(keys)).astype(np.float64, copy=False)
            keys, data = keys[data != 0], data[data != 0]  # the rest is checked below
        # int32 indices while they fit, as scipy keeps them
        index = np.int32 if max(n, ncols, len(keys)) <= np.iinfo(np.int32).max else np.int64
        indptr = np.searchsorted(keys, np.arange(n + 1) * ncols).astype(index)
        indices = (keys - np.repeat(np.arange(n) * ncols, np.diff(indptr))).astype(index)
        return ViewMatrix(indptr, indices, data, tuple(row_names), tuple(col_names))

    @staticmethod
    def from_matrix(matrix, row_names, col_names) -> "ViewMatrix":
        """A copy of any scipy matrix or dense array, duplicates summed."""
        from scipy import sparse

        coo = sparse.coo_matrix(matrix)
        if coo.shape != (len(row_names), len(col_names)):
            raise GraphUsageError("registry sizes do not match matrix shape")
        return ViewMatrix.from_codes(coo.row, coo.col, row_names, col_names, counts=coo.data)

    def write_triplets(self, path) -> None:
        """Text format: `row_name<TAB>col_name<TAB>count` per nonzero, in
        (row, col) order, which is the canonical CSR storage order, formatted
        by `_kernels.triplet_bytes`. A name holding a tab or line break, which
        would split its line, raises before any file is created."""
        names = (*self.row_names, *self.col_names)
        if _SEPARATOR_RE.search("".join(names)):
            bad = next(name for name in names if _SEPARATOR_RE.search(name))
            raise GraphUsageError(f"tab or line break in {bad!r}")
        text = _kernels.triplet_bytes(self.indptr, self.indices, self.data,
                                      self.row_names, self.col_names)
        with atomic_write(path) as tmp, open(tmp, "wb") as fh:
            fh.write(text)

    @staticmethod
    def read_triplets(path, row_names=None, col_names=None) -> "ViewMatrix":
        """Read the `write_triplets` format. Registries follow first-appearance
        order unless given explicitly; a name outside a given one raises."""
        rows = {name: i for i, name in enumerate(row_names or ())}
        cols = {name: i for i, name in enumerate(col_names or ())}
        ri, ci, vals = [], [], []
        expected = "row<TAB>col<TAB>count"
        for lineno, (r, c, count) in read_rows(path, 3, expected):
            try:
                value = float(count)
            except ValueError:
                value = math.nan
            if not 0 <= value < math.inf:
                raise GraphUsageError(f"{path}:{lineno}: expected {expected}, got count {count!r}")
            vals.append(value)
            if r not in rows:
                if row_names is not None:
                    raise GraphUsageError(f"{path}:{lineno}: unknown row {r!r}")
                rows[r] = len(rows)
            if c not in cols:
                if col_names is not None:
                    raise GraphUsageError(f"{path}:{lineno}: unknown column {c!r}")
                cols[c] = len(cols)
            ri.append(rows[r])
            ci.append(cols[c])
        return ViewMatrix.from_codes(ri, ci, tuple(rows), tuple(cols), counts=vals)


def tfidf(m: ViewMatrix, mode: str = "ratio") -> ViewMatrix:
    """Reweight counts by inverse document frequency.

    mode="ratio" uses the raw factor n/df_j; mode="log" uses log(n/df_j)+1
    so that terms present in every row keep a positive weight. The sparsity
    pattern is preserved and all-zero columns stay all-zero.
    """
    if m.n_rows < 1:
        raise GraphUsageError("tfidf needs at least one row")
    df = np.bincount(m.indices, minlength=len(m.col_names)).astype(np.float64)
    factor = np.zeros_like(df)
    nz = df > 0
    if mode == "ratio":
        factor[nz] = m.n_rows / df[nz]
    elif mode == "log":
        factor[nz] = np.log(m.n_rows / df[nz]) + 1.0
    else:
        raise GraphUsageError(f"unknown idf mode {mode!r}")
    # a positive count times a factor >= 1 stays nonzero: still canonical
    return ViewMatrix(m.indptr, m.indices, m.data * factor[m.indices], m.row_names, m.col_names)


def cosine_similarity(m: ViewMatrix, i: int, j: int) -> float:
    """Cosine of rows i and j; 0 if either row is all-zero."""
    if not (0 <= i < m.n_rows and 0 <= j < m.n_rows):
        raise GraphUsageError("row index out of range")
    a, b = (i, j) if i <= j else (j, i)
    counts = m.counts
    ra, rb = counts.getrow(a), counts.getrow(b)
    na = math.sqrt(ra.multiply(ra).sum())
    nb = math.sqrt(rb.multiply(rb).sum())
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(ra.multiply(rb).sum() / (na * nb))


def _unit_rows(mat: ViewMatrix) -> np.ndarray:
    """`mat.data` with each row scaled to unit Euclidean norm; all-zero rows
    stay zero. The values are bit for bit scipy's `diags(inv) @ mat`, with
    inv = 1 / sqrt(mat.multiply(mat).sum(axis=1)), which defines the edge
    weights of every stored graph: the elementwise product drops squares
    that underflow to 0, and the sum adds each non-empty row with
    np.add.reduceat."""
    n = len(mat.indptr) - 1
    lengths = np.diff(mat.indptr)
    sq = mat.data * mat.data
    if not sq.all():
        keep = sq != 0
        lengths = np.bincount(np.repeat(np.arange(n), lengths)[keep], minlength=n)
        sq = sq[keep]
    sums = np.zeros(n)
    filled = lengths > 0
    sums[filled] = np.add.reduceat(sq, (np.cumsum(lengths) - lengths)[filled])
    norms = np.sqrt(sums)
    inv = np.zeros(n)
    nz = norms > 0
    inv[nz] = 1.0 / norms[nz]
    return np.repeat(inv, np.diff(mat.indptr)) * mat.data


def auto_k(n: int) -> int:
    """Neighbor count floor(sqrt(n)), clamped to [1, n-1]."""
    return min(max(int(math.isqrt(n)), 1), n - 1)


def knn_graph(m: ViewMatrix, k: int | None = None) -> ViewGraph:
    """Symmetric k-NN cosine similarity graph.

    Each row links to its k most cosine-similar other rows (zero-similarity
    candidates are never linked; ties broken by lower row index), then the
    directed adjacency is averaged with its transpose. All-zero rows become
    isolates. The rows are normalised here and the rest runs in
    `_kernels.knn_edges`.
    """
    n = m.n_rows
    if n < 2:
        raise GraphUsageError("k-NN graph needs at least 2 rows")
    if k is None:
        k = auto_k(n)
    if k <= 0 or k >= n:
        raise GraphUsageError(f"k={k} out of range for n={n}")

    u, v, w = _kernels.knn_edges(m.indptr, m.indices, _unit_rows(m), len(m.col_names), k)
    return ViewGraph.from_arrays(n, u, v, w)
