"""Iterative multi-view clustering driver.

Alternates modularity maximization with re-estimation of per-view
resolutions and weights from degree-corrected edge propensities, until the
parameters stop moving or the iteration budget runs out (in which case the
highest-modularity iteration wins).
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .graph import Clustering, GraphUsageError, ViewGraph, write_rows
from .modularity import _check_views, _view_sums, maximize

# Below this gap the log-mean formula is numerically degenerate and the
# analytic limit (theta_in itself) is used instead.
THETA_GAP = 1e-12


@dataclass(frozen=True)
class MvmcConfig:
    max_iter: int = 20
    resolution_tol: float = 0.3
    weight_tol: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.max_iter, numbers.Integral):
            raise GraphUsageError("max_iter must be an integer")
        if self.max_iter < 1:
            raise GraphUsageError("max_iter must be >= 1")
        if not isinstance(self.seed, numbers.Integral) or self.seed < 0:
            raise GraphUsageError("seed must be an integer >= 0")
        if not (math.isfinite(self.resolution_tol) and math.isfinite(self.weight_tol)):
            raise GraphUsageError("tolerances must be finite")
        if self.resolution_tol <= 0 or self.weight_tol <= 0:
            raise GraphUsageError("tolerances must be positive")


@dataclass(frozen=True)
class Propensities:
    """Per-view in/out edge propensities, strictly positive."""

    theta_in: np.ndarray
    theta_out: np.ndarray


@dataclass
class IterationRecord:
    iteration: int
    weights: np.ndarray
    resolutions: np.ndarray
    modularity: float
    n_clusters: int
    weight_clamped: bool = False


@dataclass
class MvmcTrace:
    records: list[IterationRecord] = field(default_factory=list)
    converged: bool = False
    chosen_iteration: int = 0

    def write(self, path) -> None:
        """A header row, then one line per iteration: iteration, each view's
        resolution, each view's weight, modularity, cluster count."""
        views = range(len(self.records[0].weights) if self.records else 0)
        header = ["iteration", *(f"resolution_{v}" for v in views),
                  *(f"weight_{v}" for v in views), "modularity", "clusters"]
        write_rows(path, ((r.iteration, *map(float, r.resolutions), *map(float, r.weights),
                           float(r.modularity), r.n_clusters) for r in self.records),
                   "\t".join(header))


def edge_propensities(graphs: list[ViewGraph], clustering: Clustering) -> Propensities:
    """Fit in/out edge propensities of a degree-corrected planted partition.

    Per view: theta_in = e_in / (sum_c kappa_c^2 / 4m) and
    theta_out = (m - e_in) / (m - sum_c kappa_c^2 / 4m), where e_in is the
    intra-cluster edge weight and kappa_c the cluster degree sum. Degenerate
    partitions (no internal or no external edges) get the substitute
    1/|edges|; views without edges get neutral propensities of 1.
    """
    n = _check_views(graphs)
    labels = clustering.labels
    if len(labels) != n:
        raise GraphUsageError("clustering does not cover the node set")
    t_in = np.empty(len(graphs))
    t_out = np.empty(len(graphs))
    for v, g in enumerate(graphs):
        m = g.total_edge_weight()
        if m == 0.0:
            t_in[v] = t_out[v] = 1.0
            continue
        e_in, kappa2 = _view_sums(g, labels, g.degrees())
        null_in = kappa2 / (4.0 * m)
        small = 1.0 / g.edge_count
        t_in[v] = small if e_in == 0.0 else e_in / null_in
        t_out[v] = small if e_in == m else (m - e_in) / (m - null_in)
    if np.any(t_in <= 0) or np.any(t_out <= 0):
        raise AssertionError("propensities must be strictly positive")
    return Propensities(theta_in=t_in, theta_out=t_out)


def update_resolution(p: Propensities) -> np.ndarray:
    """Log-mean of the propensities: (t_in - t_out) / (ln t_in - ln t_out)."""
    t_in, t_out = p.theta_in, p.theta_out
    if np.any(t_in <= 0) or np.any(t_out <= 0):
        raise AssertionError("propensities must be strictly positive")
    gamma = np.empty_like(t_in)
    close = np.abs(t_in - t_out) < THETA_GAP
    gamma[close] = t_in[close]
    gamma[~close] = (t_in[~close] - t_out[~close]) / (
        np.log(t_in[~close]) - np.log(t_out[~close])
    )
    return gamma


def update_weights(p: Propensities) -> np.ndarray:
    """Per-view log-ratio ln(t_in/t_out) normalized by the view mean."""
    ratios = np.log(p.theta_in) - np.log(p.theta_out)
    mean = ratios.mean()
    if abs(mean) < THETA_GAP:
        return np.ones_like(ratios)
    return ratios / mean


def run_mvmc(graphs: list[ViewGraph], cfg: MvmcConfig) -> tuple[Clustering, MvmcTrace]:
    """Cluster all views jointly, re-estimating resolutions and weights.

    Starts from unit resolutions and weights. Converges when both parameter
    vectors move less than their tolerances (max-norm); otherwise returns the
    iteration with highest modularity. Anti-community views (negative learned
    weight) are clamped to 0 and the clamp is noted in the trace.

    The result is the chosen iteration's `maximize` result. Its meta adds
    `iterations` and `converged`, and its `sweeps`, `moves` and `levels` are
    summed over all iterations.
    """
    gammas = np.full(len(graphs), 1.0)
    weights = np.full(len(graphs), 1.0)

    trace = MvmcTrace()
    clusterings: list[Clustering] = []
    for it in range(1, cfg.max_iter + 1):
        clustering = maximize(graphs, weights, gammas, seed=cfg.seed)
        record = IterationRecord(
            iteration=it,
            weights=weights,
            resolutions=gammas,
            modularity=clustering.meta["modularity"],
            n_clusters=clustering.n_clusters,
        )
        trace.records.append(record)
        clusterings.append(clustering)

        props = edge_propensities(graphs, clustering)
        new_gammas = update_resolution(props)
        new_weights = update_weights(props)
        if np.any(new_weights < 0.0):
            record.weight_clamped = True
            new_weights = np.maximum(new_weights, 0.0)

        if (
            np.max(np.abs(new_gammas - gammas)) < cfg.resolution_tol
            and np.max(np.abs(new_weights - weights)) < cfg.weight_tol
        ):
            trace.converged = True
            trace.chosen_iteration = it
            break
        gammas, weights = new_gammas, new_weights
    else:
        best = int(np.argmax([r.modularity for r in trace.records]))
        trace.chosen_iteration = best + 1

    chosen = clusterings[trace.chosen_iteration - 1]
    for key in ("sweeps", "moves", "levels"):
        chosen.meta[key] = sum(c.meta[key] for c in clusterings)
    chosen.meta.update(iterations=len(trace.records), converged=trace.converged)
    return chosen, trace
