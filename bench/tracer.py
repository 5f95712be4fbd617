"""Spans around calls into mvmc's public functions, recorded from outside.

Each hook names a module attribute that callers resolve at call time (for
example `mvmc.driver.maximize`, the binding the driver calls). While a
`Tracer` is installed, that attribute is replaced by a wrapper that records
a span and calls through unchanged; `uninstall` puts the original back. A
hook whose module or attribute does not exist is skipped, so the metrics it
feeds are missing instead of the benchmark crashing.
"""
from __future__ import annotations

import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter
from types import SimpleNamespace


def _count_kernel(counts, args, result):
    n_moves = int(result[1])
    counts["kernel.moves"] += n_moves
    counts["kernel.useful_sweeps"] += n_moves > 0
    counts["kernel.entries_scanned"] += int(args[0][-1])  # indptr[-1] = nnz
    counts["kernel.bytes_computed"] += sum(getattr(a, "nbytes", 0) for a in args)


def _count_driver(counts, args, result):
    counts["driver.iterations"] += int(result[0].meta["iterations"])
    counts["driver.converged"] += bool(result[0].meta["converged"])


def _count_days(counts, args, result):
    counts["ingest.hashtag_days"] += len(result.hashtags)


def _count_knn(counts, args, result):
    counts["views.knn_edges"] += int(result.edge_count)


def _count_ari(counts, args, result):
    k = len(result)
    counts["compare.ari_pairs"] += k * (k - 1) // 2


def _count_ensemble_graph(counts, args, result):
    counts["ensemble.graph_nodes"] += int(result.n)


# (module, attribute path, span name or None for count-only, counter)
HOOKS = [
    ("mvmc.cli", "read_posts", "ingest.read", None),
    ("mvmc.cli", "build_daily_views", "ingest.build_views", _count_days),
    ("mvmc.cli", "tfidf", "views.tfidf", None),
    ("mvmc.cli", "knn_graph", "views.knn", _count_knn),
    ("mvmc.graph", "ViewGraph.from_edges", "graph.from_edges", None),
    ("mvmc.cli", "run_mvmc", "driver.run", _count_driver),
    ("mvmc.driver", "run_mvmc", "driver.run", _count_driver),
    ("mvmc.driver", "maximize", "modularity.maximize", None),
    ("mvmc.ensemble", "maximize", "modularity.maximize", None),
    ("mvmc.modularity", "move_pass", "kernel.move_pass", _count_kernel),
    ("mvmc.cli", "cross_level", "compare.cross_level", None),
    ("mvmc.cli", "pairwise_ari_matrix", "compare.ari_matrix", _count_ari),
    ("mvmc.cli", "average_linkage_merges", "compare.linkage", None),
    ("mvmc.compare", "average_linkage_merges", "compare.linkage", None),
    ("mvmc.cli", "ensemble_cluster", "ensemble", None),
    ("mvmc.ensemble", "build_object_cluster_graph", None, _count_ensemble_graph),
    ("mvmc.analytics", "cluster_report_rows", "analytics", None),
    ("mvmc.analytics", "hashtag_report_rows", "analytics", None),
    ("mvmc.analytics", "token_frequencies", "analytics", None),
]


def _resolve(module_name, path):
    """(owner, attribute name) for a dotted attribute path, or None."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
    if owner is None or name not in vars(owner):
        return None
    return owner, name


class Tracer:
    """In-memory span log: [name, start, end, parent index] per span."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.installed: set[str] = set()
        self.broken: set[str] = set()
        self._saved: list[tuple] = []

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span named `name` (no span when name is None)."""
        if name is None:
            return fn(*args, **kwargs)
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), None, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self.stack.pop()
            self.spans[idx][2] = perf_counter()

    def _wrap(self, name, fn, counter):
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if counter is not None:
                try:
                    counter(self.counts, args, result)
                except (TypeError, IndexError, KeyError, AttributeError, ValueError):
                    self.broken.add(counter.__name__)
            return result

        return wrapper

    def install(self, hooks=HOOKS):
        for module_name, path, name, counter in hooks:
            target = _resolve(module_name, path)
            if target is None:
                print(f"trace: {module_name}.{path} not found, skipped", file=sys.stderr)
                continue
            owner, attr = target
            raw = vars(owner)[attr]
            wrapped = self._wrap(name, getattr(owner, attr), counter)
            setattr(owner, attr, staticmethod(wrapped) if isinstance(raw, staticmethod) else wrapped)
            self._saved.append((owner, attr, raw))
            if name is not None:
                self.installed.add(name)
            if counter is not None:
                self.installed.add(counter.__name__)

    def uninstall(self):
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    def totals(self):
        """Per span name: (calls, total seconds, self seconds)."""
        calls: Counter = Counter()
        total: defaultdict = defaultdict(float)
        child: defaultdict = defaultdict(float)
        for name, start, end, parent in self.spans:
            calls[name] += 1
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        self_s: defaultdict = defaultdict(float)
        for idx, (name, start, end, _parent) in enumerate(self.spans):
            self_s[name] += end - start - child[idx]
        return calls, total, self_s


def _ratio(num, den):
    return num / den if den else 0.0


# (metric, unit, "higher"/"lower" is better, hooks it needs, value)
LAYER_METRICS = [
    ("kernel.sweep_s", "s", "lower", ("kernel.move_pass",), lambda v: v.total["kernel.move_pass"]),
    ("kernel.sweeps", "count", "lower", ("kernel.move_pass",), lambda v: v.calls["kernel.move_pass"]),
    ("kernel.moves", "count", "lower", ("_count_kernel",), lambda v: v.counts["kernel.moves"]),
    ("kernel.useful_sweep_ratio", "ratio", "higher", ("kernel.move_pass", "_count_kernel"),
     lambda v: _ratio(v.counts["kernel.useful_sweeps"], v.calls["kernel.move_pass"])),
    ("kernel.entries_scanned", "count", "lower", ("_count_kernel",),
     lambda v: v.counts["kernel.entries_scanned"]),
    ("kernel.ns_per_entry", "ns", "lower", ("kernel.move_pass", "_count_kernel"),
     lambda v: _ratio(1e9 * v.total["kernel.move_pass"], v.counts["kernel.entries_scanned"])),
    ("kernel.bytes_computed", "bytes", "lower", ("_count_kernel",),
     lambda v: v.counts["kernel.bytes_computed"]),
    ("modularity.maximize_s", "s", "lower", ("modularity.maximize",),
     lambda v: v.total["modularity.maximize"]),
    ("modularity.maximize_calls", "count", "lower", ("modularity.maximize",),
     lambda v: v.calls["modularity.maximize"]),
    ("modularity.self_s", "s", "lower", ("modularity.maximize",),
     lambda v: v.self_s["modularity.maximize"]),
    ("driver.run_s", "s", "lower", ("driver.run",), lambda v: v.total["driver.run"]),
    ("driver.self_s", "s", "lower", ("driver.run",), lambda v: v.self_s["driver.run"]),
    ("driver.iterations", "count", "lower", ("_count_driver",),
     lambda v: v.counts["driver.iterations"]),
    ("driver.converged_ratio", "ratio", "higher", ("driver.run", "_count_driver"),
     lambda v: _ratio(v.counts["driver.converged"], v.calls["driver.run"])),
    ("views.tfidf_s", "s", "lower", ("views.tfidf",), lambda v: v.total["views.tfidf"]),
    ("views.knn_s", "s", "lower", ("views.knn",), lambda v: v.total["views.knn"]),
    ("views.knn_edges", "count", "lower", ("_count_knn",), lambda v: v.counts["views.knn_edges"]),
    ("graph.from_edges_s", "s", "lower", ("graph.from_edges",),
     lambda v: v.total["graph.from_edges"]),
    ("ingest.read_s", "s", "lower", ("ingest.read",), lambda v: v.total["ingest.read"]),
    ("ingest.build_views_s", "s", "lower", ("ingest.build_views",),
     lambda v: v.total["ingest.build_views"]),
    ("ingest.hashtag_days", "count", "lower", ("_count_days",),
     lambda v: v.counts["ingest.hashtag_days"]),
    ("compare.cross_level_s", "s", "lower", ("compare.cross_level",),
     lambda v: v.total["compare.cross_level"]),
    ("compare.ari_matrix_s", "s", "lower", ("compare.ari_matrix",),
     lambda v: v.total["compare.ari_matrix"]),
    ("compare.ari_pairs", "count", "lower", ("_count_ari",), lambda v: v.counts["compare.ari_pairs"]),
    ("compare.linkage_s", "s", "lower", ("compare.linkage",), lambda v: v.total["compare.linkage"]),
    ("compare.linkage_calls", "count", "lower", ("compare.linkage",),
     lambda v: v.calls["compare.linkage"]),
    ("ensemble.s", "s", "lower", ("ensemble",), lambda v: v.total["ensemble"]),
    ("ensemble.self_s", "s", "lower", ("ensemble",), lambda v: v.self_s["ensemble"]),
    ("ensemble.graph_nodes", "count", "lower", ("_count_ensemble_graph",),
     lambda v: v.counts["ensemble.graph_nodes"]),
    ("analytics.s", "s", "lower", ("analytics",), lambda v: v.total["analytics"]),
    ("cli.self_s", "s", "lower", (), lambda v: v.self_s["cli.pipeline"]),
]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer values of one traced operation; metrics of missing hooks are left out."""
    calls, total, self_s = tracer.totals()
    v = SimpleNamespace(calls=calls, total=total, self_s=self_s, counts=tracer.counts)
    return {
        name: float(value(v))
        for name, _unit, _better, needs, value in LAYER_METRICS
        if all(n in tracer.installed and n not in tracer.broken for n in needs)
    }
