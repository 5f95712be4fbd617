"""Sparse weighted undirected graphs and cluster assignments.

The whole pipeline works on a shared dense node set 0..n-1; string
identifiers (hashtags) are kept in registries at the ingestion layer.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np
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
    def from_edges(n: int, edges: Iterable[tuple[int, int, float]]) -> "ViewGraph":
        """Build a graph from an (i, j, weight) iterable.

        Edges are canonicalized to u < v; self-loops, duplicate pairs,
        and non-finite or non-positive weights are rejected.
        """
        if n < 0:
            raise GraphUsageError("node count must be nonnegative")
        us, vs, ws = [], [], []
        for i, j, w in edges:
            if not (0 <= i < n and 0 <= j < n):
                raise GraphUsageError(f"edge ({i},{j}) out of range for n={n}")
            if i == j:
                raise GraphUsageError(f"self-loop at node {i}")
            if not np.isfinite(w) or w < 0:
                raise GraphUsageError(f"bad weight {w} on edge ({i},{j})")
            if w < WEIGHT_FLOOR:
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
        if len(u) > 1 and np.any((u[1:] == u[:-1]) & (v[1:] == v[:-1])):
            dup = np.flatnonzero((u[1:] == u[:-1]) & (v[1:] == v[:-1]))[0]
            raise GraphUsageError(f"duplicate edge ({u[dup]},{v[dup]})")
        return ViewGraph(n=n, edge_u=u, edge_v=v, edge_w=w)

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
        rows = np.concatenate([self.edge_u, self.edge_v])
        cols = np.concatenate([self.edge_v, self.edge_u])
        data = np.concatenate([self.edge_w, self.edge_w])
        return sparse.csr_matrix((data, (rows, cols)), shape=(self.n, self.n))

    def connected_components(self) -> list[set[int]]:
        """Maximal connected node sets; isolates are singletons."""
        parent = np.arange(self.n)

        def find(x: int) -> int:
            root = x
            while parent[root] != root:
                root = parent[root]
            while parent[x] != root:
                parent[x], x = root, parent[x]
            return root

        for a, b in zip(self.edge_u, self.edge_v):
            ra, rb = find(int(a)), find(int(b))
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
        groups: dict[int, set[int]] = {}
        for node in range(self.n):
            groups.setdefault(find(node), set()).add(node)
        return [groups[r] for r in sorted(groups)]

    def write_edge_list(self, path) -> None:
        """Debug format: header `#nodes=<n>`, then `i<TAB>j<TAB>weight` lines."""
        with open(path, "w") as fh:
            fh.write(f"#nodes={self.n}\n")
            for i, j, w in zip(self.edge_u, self.edge_v, self.edge_w):
                fh.write(f"{i}\t{j}\t{float(w)!r}\n")

    @staticmethod
    def read_edge_list(path) -> "ViewGraph":
        with open(path) as fh:
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
        if len(labels) and (labels.min() < 0 or not np.array_equal(
                np.unique(labels), np.arange(labels.max() + 1))):
            raise GraphUsageError("cluster labels must be dense 0..k-1")

    @property
    def n_clusters(self) -> int:
        return int(self.labels.max()) + 1 if len(self.labels) else 0


def densify_labels(raw: Sequence) -> np.ndarray:
    """Map arbitrary labels to dense ints in first-appearance order."""
    mapping: dict = {}
    out = np.empty(len(raw), dtype=np.int64)
    for idx, lab in enumerate(raw):
        if lab not in mapping:
            mapping[lab] = len(mapping)
        out[idx] = mapping[lab]
    return out
