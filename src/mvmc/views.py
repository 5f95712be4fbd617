"""View matrices and similarity-graph construction.

A view is a sparse nonnegative object x feature count matrix. Graphs are
built by tf-idf weighting, cosine similarity, and symmetric k-NN
sparsification with the average symmetrization A' = (A + A^T) / 2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .graph import GraphUsageError, ViewGraph, WEIGHT_FLOOR


@dataclass(frozen=True)
class ViewMatrix:
    """Sparse count matrix plus name registries for rows and columns."""

    counts: sparse.csr_matrix
    row_names: tuple[str, ...]
    col_names: tuple[str, ...]

    def __post_init__(self):
        mat = sparse.csr_matrix(self.counts, dtype=np.float64)
        mat.eliminate_zeros()
        if mat.nnz and (not np.all(np.isfinite(mat.data)) or mat.data.min() < 0):
            raise GraphUsageError("view entries must be nonnegative and finite")
        object.__setattr__(self, "counts", mat)
        if mat.shape != (len(self.row_names), len(self.col_names)):
            raise GraphUsageError("registry sizes do not match matrix shape")

    @property
    def n_rows(self) -> int:
        return self.counts.shape[0]

    @staticmethod
    def from_codes(rows, cols, row_names, col_names) -> "ViewMatrix":
        """Build from parallel row and column codes, each pair counting 1;
        repeated pairs are summed."""
        mat = sparse.csr_matrix(
            (np.ones(len(rows)), (rows, cols)),
            shape=(len(row_names), len(col_names)),
            dtype=np.float64,
        )
        return ViewMatrix(mat, tuple(row_names), tuple(col_names))

    def write_triplets(self, path) -> None:
        """Text format: `row_name<TAB>col_name<TAB>count` per nonzero."""
        coo = self.counts.tocoo()
        order = np.lexsort((coo.col, coo.row))
        with open(path, "w", encoding="utf-8") as fh:
            for r, c, v in zip(coo.row[order], coo.col[order], coo.data[order]):
                fh.write(f"{self.row_names[r]}\t{self.col_names[c]}\t{float(v)!r}\n")

    @staticmethod
    def read_triplets(path, row_names=None, col_names=None) -> "ViewMatrix":
        """Read the `write_triplets` format. Registries follow first-appearance
        order unless given explicitly; a name outside a given one raises."""
        rows = {name: i for i, name in enumerate(row_names or ())}
        cols = {name: i for i, name in enumerate(col_names or ())}
        ri, ci, vals = [], [], []
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                fields = line.rstrip("\n").split("\t")
                if fields == [""]:
                    continue
                try:
                    r, c, count = fields
                    vals.append(float(count))
                except ValueError:
                    got = (f"count {fields[2]!r}" if len(fields) == 3
                           else f"{len(fields)} field(s)")
                    raise GraphUsageError(
                        f"{path}:{lineno}: expected row<TAB>col<TAB>count, got {got}"
                    ) from None
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
    df = np.diff(counts.tocsc().indptr).astype(np.float64)
    factor = np.zeros_like(df)
    nz = df > 0
    if mode == "ratio":
        factor[nz] = m.n_rows / df[nz]
    elif mode == "log":
        factor[nz] = np.log(m.n_rows / df[nz]) + 1.0
    else:
        raise GraphUsageError(f"unknown idf mode {mode!r}")
    out = counts.multiply(factor[np.newaxis, :]).tocsr()
    return ViewMatrix(out, m.row_names, m.col_names)


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


def _normalize_rows(mat: sparse.csr_matrix) -> sparse.csr_matrix:
    norms = np.sqrt(np.asarray(mat.multiply(mat).sum(axis=1)).ravel())
    inv = np.zeros_like(norms)
    nz = norms > 0
    inv[nz] = 1.0 / norms[nz]
    return sparse.diags(inv) @ mat


def auto_k(n: int) -> int:
    """Neighbor count floor(sqrt(n)), clamped to [1, n-1]."""
    return min(max(int(math.isqrt(n)), 1), n - 1)


def knn_graph(m: ViewMatrix, k: int | None = None) -> ViewGraph:
    """Symmetric k-NN cosine similarity graph.

    Each row links to its k most cosine-similar other rows (zero-similarity
    candidates are never linked; ties broken by lower row index), then the
    directed adjacency is averaged with its transpose. All-zero rows become
    isolates.
    """
    n = m.n_rows
    if n < 2:
        raise GraphUsageError("k-NN graph needs at least 2 rows")
    if k is None:
        k = auto_k(n)
    if k <= 0 or k >= n:
        raise GraphUsageError(f"k={k} out of range for n={n}")

    normed = _normalize_rows(m.counts).tocsr()
    sims = (normed @ normed.T).tocsr()
    sims.setdiag(0.0)
    sims.data[~(sims.data > WEIGHT_FLOOR)] = 0.0  # never linked, NaN included
    sims.eliminate_zeros()

    # each row's picks, as positions into sims: ranked by -value then
    # column, first k kept
    indptr, indices, data = sims.indptr, sims.indices, sims.data
    picks = []
    for i in range(n):
        lo, hi = indptr[i], indptr[i + 1]
        picks.append(lo + np.lexsort((indices[lo:hi], -data[lo:hi]))[:k])
    rows = np.repeat(np.arange(n), [len(p) for p in picks])
    pos = np.concatenate(picks)
    directed = sparse.csr_matrix((data[pos], (rows, indices[pos])), shape=(n, n))
    sym = (directed + directed.T) * 0.5
    sym = sparse.triu(sym, k=1).tocoo()
    return ViewGraph.from_arrays(n, sym.row, sym.col, sym.data)
