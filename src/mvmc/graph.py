"""Sparse weighted undirected graphs and cluster assignments.

The whole pipeline works on a shared dense node set 0..n-1; string
identifiers (hashtags) are kept in registries at the ingestion layer.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

if TYPE_CHECKING:
    from scipy import sparse

# Edges with weight below this are dropped at construction; near-zero cosine
# weights are indistinguishable from absent edges in modularity.
WEIGHT_FLOOR = 1e-12


class GraphUsageError(ValueError):
    """Raised on contract violations (bad node ids, malformed edges)."""


@dataclass(frozen=True)
class ViewGraph:
    """Immutable undirected weighted graph, edges stored once with u < v."""

    n: int
    edge_u: np.ndarray
    edge_v: np.ndarray
    edge_w: np.ndarray

    @staticmethod
    def from_arrays(n: int, i, j, w) -> "ViewGraph":
        """Build a graph from parallel endpoint and weight arrays.

        Edges are stored as u < v, sorted, and dropped under WEIGHT_FLOOR.
        Out-of-range ids, self-loops, non-finite or negative weights and
        duplicate pairs raise, naming the first bad edge in input order."""
        if n < 0:
            raise GraphUsageError("node count must be nonnegative")
        i, j, w = np.asarray(i), np.asarray(j), np.asarray(w)
        if i.ndim != 1 or not i.shape == j.shape == w.shape:
            raise GraphUsageError("edge arrays must be 1-D and of one length")
        out_of_range = (i < 0) | (i >= n) | (j < 0) | (j >= n)
        loop = i == j
        bad = np.flatnonzero(out_of_range | loop | ~np.isfinite(w) | (w < 0))
        if len(bad):
            k = bad[0]
            if out_of_range[k]:
                raise GraphUsageError(f"edge ({i[k]},{j[k]}) out of range for n={n}")
            if loop[k]:
                raise GraphUsageError(f"self-loop at node {i[k]}")
            raise GraphUsageError(f"bad weight {w[k]} on edge ({i[k]},{j[k]})")
        keep = w >= WEIGHT_FLOOR
        u = np.minimum(i, j)[keep].astype(np.int64)
        v = np.maximum(i, j)[keep].astype(np.int64)
        order = np.lexsort((v, u))
        u, v, w = u[order], v[order], w[keep][order].astype(np.float64)
        dup = np.flatnonzero((u[1:] == u[:-1]) & (v[1:] == v[:-1]))
        if len(dup):
            raise GraphUsageError(f"duplicate edge ({u[dup[0]]},{v[dup[0]]})")
        return ViewGraph(n=n, edge_u=u, edge_v=v, edge_w=w)

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int, float]]) -> "ViewGraph":
        """Build a graph from an (i, j, weight) iterable; see `from_arrays`."""
        columns = tuple(zip(*edges)) or ((), (), ())
        return ViewGraph.from_arrays(n, *columns)

    @property
    def edge_count(self) -> int:
        return len(self.edge_w)

    def degrees(self) -> np.ndarray:
        """Weighted degree of every node (isolates get 0)."""
        deg = np.bincount(self.edge_u, weights=self.edge_w, minlength=self.n)
        deg += np.bincount(self.edge_v, weights=self.edge_w, minlength=self.n)
        return deg

    def total_edge_weight(self) -> float:
        """Sum of edge weights; each undirected edge counted once."""
        return float(self.edge_w.sum())

    def adjacency(self) -> sparse.csr_matrix:
        """Symmetric CSR adjacency (each edge present in both directions)."""
        from scipy import sparse

        rows = np.concatenate([self.edge_u, self.edge_v])
        cols = np.concatenate([self.edge_v, self.edge_u])
        data = np.concatenate([self.edge_w, self.edge_w])
        return sparse.csr_matrix((data, (rows, cols)), shape=(self.n, self.n))

    def connected_components(self) -> list[set[int]]:
        """Maximal connected node sets, ordered by smallest node; isolates are singletons."""
        from scipy.sparse import csgraph

        _count, labels = csgraph.connected_components(self.adjacency(), directed=False)
        groups: dict[int, set[int]] = {}
        for node, label in enumerate(labels.tolist()):
            groups.setdefault(label, set()).add(node)
        return list(groups.values())

    def write_edge_list(self, path) -> None:
        """Debug format: header `#nodes=<n>`, then `i<TAB>j<TAB>weight` lines."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"#nodes={self.n}\n")
            for i, j, w in zip(self.edge_u, self.edge_v, self.edge_w):
                fh.write(f"{i}\t{j}\t{float(w)!r}\n")

    @staticmethod
    def read_edge_list(path) -> "ViewGraph":
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().strip()
            if not header.startswith("#nodes="):
                raise GraphUsageError(f"{path}: missing #nodes= header")
            n = int(header.split("=", 1)[1])
            edges = []
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                i, j, w = line.split("\t")
                edges.append((int(i), int(j), float(w)))
        return ViewGraph.from_edges(n, edges)


@dataclass(frozen=True)
class Clustering:
    """Node -> cluster assignment with dense labels 0..k-1."""

    labels: np.ndarray
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int64)
        object.__setattr__(self, "labels", labels)
        # dense: every label in [0, len(labels)), and each of 0..max used
        if len(labels) and not (labels.min() >= 0 and labels.max() < len(labels)
                                and np.bincount(labels).all()):
            raise GraphUsageError("cluster labels must be dense 0..k-1")

    @property
    def n_clusters(self) -> int:
        return int(self.labels.max()) + 1 if len(self.labels) else 0


def densify_labels(raw: Sequence, index: dict | None = None) -> np.ndarray:
    """Map arbitrary labels to dense ints in first-appearance order; labels
    already in `index` keep their codes there, and new ones are added to it."""
    index = {} if index is None else index
    return np.fromiter((index.setdefault(lab, len(index)) for lab in raw),
                       np.int64, len(raw))
