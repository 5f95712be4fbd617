"""Consensus clustering of a set of daily clusterings.

Builds the bipartite object-by-cluster membership graph and partitions it
with the single-view modularity maximizer; an object's consensus label is
its community. Each day is joined to the objects it holds; entries labelled
DUMMY_LABEL carry no similarity signal and get no cluster vertex, so a day
needs no entries for the objects it lacks.
"""
from __future__ import annotations

from collections import Counter

import numpy as np

from .compare import DUMMY_LABEL, LabeledClustering, pairwise_ari_matrix
from .graph import GraphUsageError, ViewGraph
from .modularity import maximize

MIN_CLUSTER_SIZE = 5


def filter_small_clusters(
    c: LabeledClustering, min_size: int = MIN_CLUSTER_SIZE
) -> LabeledClustering:
    """Drop objects whose cluster has fewer than min_size members."""
    sizes = Counter(c.assignments.values())
    kept = {o: l for o, l in c.assignments.items() if sizes[l] >= min_size}
    return LabeledClustering(kept, c.tag)


def build_object_cluster_graph(
    clusterings: list[LabeledClustering], universe: list[str]
) -> ViewGraph:
    """Bipartite membership graph over objects plus (day, cluster) vertices."""
    index = {obj: i for i, obj in enumerate(universe)}
    cluster_vertex: dict[tuple[int, object], int] = {}
    objs, vertices = [], []
    for day, c in enumerate(clusterings):
        if not c.assignments.keys() <= index.keys():
            raise GraphUsageError("clusterings may hold only objects of the universe")
        for obj in sorted(c.assignments):
            label = c.assignments[obj]
            if label == DUMMY_LABEL:
                continue
            objs.append(index[obj])
            vertices.append(cluster_vertex.setdefault(
                (day, label), len(universe) + len(cluster_vertex)))
    n = len(universe) + len(cluster_vertex)
    return ViewGraph.from_arrays(n, objs, vertices, np.ones(len(objs)))


def ensemble_cluster(clusterings: list[LabeledClustering], seed: int = 0) -> LabeledClustering:
    """Consensus clustering of >= 2 clusterings, over the sorted union of
    their objects."""
    if len(clusterings) < 2:
        raise GraphUsageError("ensembling needs at least two clusterings")
    universe = sorted(set().union(*(c.objects for c in clusterings)))
    graph = build_object_cluster_graph(clusterings, universe)
    # maximize's labels are dense in first-appearance order, so the labels
    # of the objects, nodes 0..U-1, are too
    labels = maximize([graph], seed=seed).labels[: len(universe)]
    return LabeledClustering(
        {obj: int(lab) for obj, lab in zip(universe, labels)}, tag="consensus"
    )


def average_internal_ari(clusterings: list[LabeledClustering]) -> float:
    """Mean off-diagonal pairwise ARI among a period's daily clusterings.

    The days may hold different objects: they are compared over the union of
    their objects, the ones a day lacks forming that day's dummy group, as
    `pairwise_ari_matrix` does. The pipeline's `avg_internal_ari`, the mean
    of a period's block of the all-days matrix, is this over the period's
    days cross-leveled to every kept day's objects, not over its own days.
    """
    k = len(clusterings)
    if k < 2:
        raise GraphUsageError("need at least two clusterings")
    matrix = pairwise_ari_matrix(clusterings)
    return float(np.mean(matrix[np.triu_indices(k, 1)]))
