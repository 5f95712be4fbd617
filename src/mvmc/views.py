"""View matrices and similarity-graph construction.

A view is a sparse nonnegative object x feature count matrix. Graphs are
built by tf-idf weighting, cosine similarity, and symmetric k-NN
sparsification with the average symmetrization A' = (A + A^T) / 2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import _kernels
from .graph import GraphUsageError, ViewGraph, atomic_write, read_rows

if TYPE_CHECKING:
    from scipy import sparse


@dataclass(frozen=True)
class ViewMatrix:
    """Sparse count matrix plus name registries for rows and columns.

    The matrix is stored as a canonical CSR copy of the one given: columns
    ascending within each row, duplicate entries summed, zeros dropped.
    """

    counts: sparse.csr_matrix
    row_names: tuple[str, ...]
    col_names: tuple[str, ...]

    def __post_init__(self):
        from scipy import sparse

        mat = sparse.csr_matrix(self.counts, dtype=np.float64, copy=True)
        mat.sum_duplicates()
        mat.eliminate_zeros()
        object.__setattr__(self, "counts", mat)
        self._check()

    def _check(self):
        """Raise unless the entries are nonnegative and finite and the
        registries match the shape."""
        mat = self.counts
        if mat.nnz and (not np.all(np.isfinite(mat.data)) or mat.data.min() < 0):
            raise GraphUsageError("view entries must be nonnegative and finite")
        if mat.shape != (len(self.row_names), len(self.col_names)):
            raise GraphUsageError("registry sizes do not match matrix shape")

    @classmethod
    def _from_canonical(cls, data, indices, indptr, row_names, col_names) -> "ViewMatrix":
        """Wrap CSR arrays that are already canonical (columns ascending and
        distinct within each row, no zeros, float64 data) without the copy
        and canonicalisation of the public constructor. The view takes the
        arrays over, so the caller must not change them. The entries and the
        shape are still checked."""
        from scipy import sparse

        view = object.__new__(cls)
        mat = sparse.csr_matrix((data, indices, indptr), shape=(len(row_names), len(col_names)))
        for name, value in (("counts", mat), ("row_names", tuple(row_names)),
                            ("col_names", tuple(col_names))):
            object.__setattr__(view, name, value)
        view._check()
        return view

    @property
    def n_rows(self) -> int:
        return self.counts.shape[0]

    @staticmethod
    def from_codes(rows, cols, row_names, col_names) -> "ViewMatrix":
        """Build from parallel row and column codes, each pair counting 1;
        repeated pairs are summed."""
        n, ncols = len(row_names), len(col_names)
        rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
        if len(rows) and (rows.min() < 0 or rows.max() >= n
                          or cols.min() < 0 or cols.max() >= ncols):
            raise GraphUsageError("row or column code out of range")
        # each distinct (row, col) key once, ascending: canonical CSR order
        keys, counts = np.unique(rows * ncols + cols, return_counts=True)
        indptr = np.searchsorted(keys, np.arange(n + 1) * ncols)
        indices = keys - np.repeat(np.arange(n) * ncols, np.diff(indptr))
        return ViewMatrix._from_canonical(
            counts.astype(np.float64), indices, indptr, row_names, col_names
        )

    def write_triplets(self, path) -> None:
        """Text format: `row_name<TAB>col_name<TAB>count` per nonzero, in
        (row, col) order, which is the canonical CSR storage order."""
        indptr = self.counts.indptr.tolist()
        cols, vals = self.counts.indices.tolist(), self.counts.data.tolist()
        col_names = self.col_names
        with atomic_write(path) as tmp, open(tmp, "w", encoding="utf-8") as fh:
            for r, name in enumerate(self.row_names):  # one write per row
                lo, hi = indptr[r], indptr[r + 1]
                fh.write("".join(f"{name}\t{col_names[c]}\t{v!r}\n"
                                 for c, v in zip(cols[lo:hi], vals[lo:hi])))

    @staticmethod
    def read_triplets(path, row_names=None, col_names=None) -> "ViewMatrix":
        """Read the `write_triplets` format. Registries follow first-appearance
        order unless given explicitly; a name outside a given one raises."""
        from scipy import sparse

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
        mat = sparse.csr_matrix(
            (vals, (ri, ci)), shape=(len(rows), len(cols)), dtype=np.float64
        )
        return ViewMatrix(mat, tuple(rows), tuple(cols))


def tfidf(m: ViewMatrix, mode: str = "ratio") -> ViewMatrix:
    """Reweight counts by inverse document frequency.

    mode="ratio" uses the raw factor n/df_j; mode="log" uses log(n/df_j)+1
    so that terms present in every row keep a positive weight. The sparsity
    pattern is preserved and all-zero columns stay all-zero.
    """
    if m.n_rows < 1:
        raise GraphUsageError("tfidf needs at least one row")
    counts = m.counts
    df = np.bincount(counts.indices, minlength=counts.shape[1]).astype(np.float64)
    factor = np.zeros_like(df)
    nz = df > 0
    if mode == "ratio":
        factor[nz] = m.n_rows / df[nz]
    elif mode == "log":
        factor[nz] = np.log(m.n_rows / df[nz]) + 1.0
    else:
        raise GraphUsageError(f"unknown idf mode {mode!r}")
    # a positive count times a factor >= 1 stays nonzero: still canonical
    return ViewMatrix._from_canonical(
        counts.data * factor[counts.indices], counts.indices.copy(), counts.indptr.copy(),
        m.row_names, m.col_names,
    )


def cosine_similarity(m: ViewMatrix, i: int, j: int) -> float:
    """Cosine of rows i and j; 0 if either row is all-zero."""
    if not (0 <= i < m.n_rows and 0 <= j < m.n_rows):
        raise GraphUsageError("row index out of range")
    a, b = (i, j) if i <= j else (j, i)
    ra = m.counts.getrow(a)
    rb = m.counts.getrow(b)
    na = math.sqrt(ra.multiply(ra).sum())
    nb = math.sqrt(rb.multiply(rb).sum())
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(ra.multiply(rb).sum() / (na * nb))


def _unit_rows(mat: sparse.csr_matrix) -> np.ndarray:
    """`mat.data` with each row scaled to unit Euclidean norm; all-zero rows
    stay zero. The values are bit for bit scipy's `diags(inv) @ mat`, with
    inv = 1 / sqrt(mat.multiply(mat).sum(axis=1)), which defines the edge
    weights of every stored graph: the elementwise product drops squares
    that underflow to 0, and the sum adds each non-empty row with
    np.add.reduceat."""
    n = mat.shape[0]
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

    counts = m.counts
    u, v, w = _kernels.knn_edges(
        counts.indptr, counts.indices, _unit_rows(counts), counts.shape[1], k
    )
    return ViewGraph.from_arrays(n, u, v, w)
