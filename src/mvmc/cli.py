"""Command-line pipeline: ingest -> daily MVMC -> temporal comparison ->
meta-clustering -> per-period ensembles -> user analytics.

Each step is one function below; every single-stage command and
`run_pipeline` is a short sequence of calls to them, and every option that
names a config key takes its default and its check from `CONFIG_KEYS`.

Exit codes: 0 ok, 2 input error, 3 output error.
"""
from __future__ import annotations

import json
import math
import os
import sys
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import click
import numpy as np
import yaml

from . import analytics
from .compare import (
    LabeledClustering,
    average_linkage_merges,
    cross_level,  # noqa: F401  (kept importable from mvmc.cli; no stage calls it)
    cut,
    pairwise_ari_matrix,
    write_ari_matrix,
    write_dendrogram,
)
from .driver import MvmcConfig, run_mvmc
from .ensemble import ensemble_cluster, filter_small_clusters
from .graph import GraphUsageError
from .ingest import (
    MIN_POSTS_PER_HASHTAG,
    VIEW_NAMES,
    build_daily_views,
    code_posts,
    group_by_day,
    preprocess_text,  # noqa: F401  (kept importable from mvmc.cli)
    read_posts,
)
from .synth import planted_partition_views, synthetic_corpus
from .views import ViewMatrix, knn_graph, tfidf

EXIT_INPUT = 2
EXIT_OUTPUT = 3


@contextmanager
def atomic_write(path: Path):
    """Write to a temp file and rename, so partial outputs never land.

    The directory is created if missing. The temp name carries the process
    id, and the temp file is removed when the block or the rename raises.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


@contextmanager
def _exits_on(error: type[Exception], code: int):
    """An `error` raised in the block prints `error: ...` and exits `code`."""
    try:
        yield
    except error as exc:
        _fail(code, str(exc))


def _write_rows(path: Path, rows, header: str = ""):
    """Atomically write one tab-separated line per row, after the header."""
    with atomic_write(path) as tmp, open(tmp, "w", encoding="utf-8") as fh:
        if header:
            fh.write(header + "\n")
        for row in rows:
            fh.write("\t".join(map(str, row)) + "\n")


# --- config: one table of defaults and checks for `pipeline` and the options


def _real(value) -> float:
    """A config number as float, NaN if it is none.

    Takes ints, floats and any string float() reads, such as the exponent
    forms YAML leaves as strings (1e-3) or a quoted "3"; never a bool.
    """
    if isinstance(value, bool):
        return math.nan
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        return math.nan


def _integer(low: int, optional: bool = False):
    def parse(value) -> int | None:
        if optional and value is None:
            return None
        number = _real(value)
        if not (math.isfinite(number) and number.is_integer() and number >= low):
            raise ValueError(f"expected an integer >= {low}")
        return value if isinstance(value, int) else int(number)

    parse.metavar = "INTEGER"
    return parse


def _number(high: float = math.inf):
    def parse(value) -> float:
        number = _real(value)
        if not (0 < number <= high and math.isfinite(number)):
            bound = f"<= {high}" if high < math.inf else "finite"
            raise ValueError(f"expected a number > 0 and {bound}")
        return number

    parse.metavar = "FLOAT"
    return parse


def _choice(*options: str):
    def parse(value) -> str:
        if value not in options:
            raise ValueError(f"expected one of {', '.join(options)}")
        return value

    parse.metavar = f"[{'|'.join(options)}]"
    return parse


def _path(value) -> str:
    if not isinstance(value, str):
        raise ValueError("expected a path")
    return value


# key -> (default, parser); a parser returns the value or raises ValueError.
CONFIG_KEYS = {
    "input": (None, _path),
    "output_dir": (None, _path),
    "seed": (0, _integer(0)),
    "idf": ("ratio", _choice("ratio", "log")),
    "url_mode": ("exact", _choice("exact", "domain")),
    "knn_k": (None, _integer(1, optional=True)),
    "max_iter": (20, _integer(1)),
    "resolution_tol": (0.3, _number()),
    "weight_tol": (0.1, _number()),
    "min_cluster_size": (5, _integer(1)),
    "meta_k": (5, _integer(1)),
    "top_user_fraction": (1 / 3, _number(1.0)),
    "top_tokens": (20, _integer(0)),
}


def _option(flag: str, key: str = "", **kwargs):
    """A command option for a config key (by default the flag's name), with
    the key's default and check; a bad value exits 2 with a message."""
    key = key or flag.lstrip("-").replace("-", "_")
    default, parse = CONFIG_KEYS[key]

    def check(ctx, param, value):
        try:
            return parse(value)
        except ValueError as exc:
            raise click.BadParameter(f"{exc}, got {value!r}") from None

    return click.option(flag, key, default=default, callback=check,
                        type=click.UNPROCESSED, metavar=parse.metavar, **kwargs)


def _pipeline_params(cfg: dict) -> dict:
    """Defaults filled in and every value checked; exits 2 on a bad config."""
    unknown = sorted(set(cfg) - set(CONFIG_KEYS), key=str)
    if unknown:
        _fail(
            EXIT_INPUT,
            f"unknown config keys: {', '.join(map(str, unknown))}"
            f" (known keys: {', '.join(CONFIG_KEYS)})",
        )
    missing = [k for k in ("input", "output_dir") if k not in cfg]
    if missing:
        _fail(EXIT_INPUT, f"config missing keys: {', '.join(missing)}")
    params = {}
    for key, (default, parse) in CONFIG_KEYS.items():
        value = cfg.get(key, default)
        try:
            params[key] = parse(value)
        except ValueError as exc:
            _fail(EXIT_INPUT, f"config key {key}: {exc}, got {value!r}")
    return params


# --- stages


def _load_posts(input_path: str):
    path = Path(input_path)
    if not path.is_file():
        _fail(EXIT_INPUT, f"input not found: {path}")
    warnings = []
    posts = read_posts(path, on_error=lambda ln, msg: warnings.append((ln, msg)))
    for ln, msg in warnings:
        click.echo(f"warning: line {ln} skipped: {msg}", err=True)
    if not posts:
        _fail(EXIT_INPUT, f"no usable records in {path}")
    return posts


def _write_day_views(day_views, out_dir: Path):
    day_dir = out_dir / day_views.day.isoformat()
    _write_rows(day_dir / "registry.tsv", ((name,) for name in day_views.hashtags))
    for name, view in zip(VIEW_NAMES, day_views.as_list()):
        with atomic_write(day_dir / f"{name}.triplets") as tmp:
            view.write_triplets(tmp)


def _read_day_views(day_dir: Path) -> list[ViewMatrix]:
    registry_path = day_dir / "registry.tsv"
    if not registry_path.is_file():
        _fail(EXIT_INPUT, f"missing registry: {registry_path}")
    registry = tuple(
        line for line in registry_path.read_text(encoding="utf-8").split("\n") if line
    )
    views = []
    for name in VIEW_NAMES:
        path = day_dir / f"{name}.triplets"
        if not path.is_file():
            _fail(EXIT_INPUT, f"missing view file: {path}")
        cols = registry if name == "cooccur" else None
        views.append(ViewMatrix.read_triplets(path, row_names=registry, col_names=cols))
    return views


def _cluster_day(views, params: dict, tag: str = ""):
    """tf-idf and a k-NN graph per view, then MVMC; returns the labeled
    clustering of the hashtags, the clustering and the driver trace."""
    cfg = MvmcConfig(
        max_iter=params["max_iter"],
        resolution_tol=params["resolution_tol"],
        weight_tol=params["weight_tol"],
        seed=params["seed"],
    )
    graphs = [knn_graph(tfidf(view, mode=params["idf"]), params["knn_k"]) for view in views]
    clustering, trace = run_mvmc(graphs, cfg)
    lc = LabeledClustering(
        {name: int(lab) for name, lab in zip(views[0].row_names, clustering.labels)}, tag
    )
    return lc, clustering, trace


def _write_clustering(lc: LabeledClustering, trace, labels_path: Path, trace_path: Path):
    with atomic_write(labels_path) as tmp:
        lc.write_tsv(tmp)
    with atomic_write(trace_path) as tmp:
        trace.write(tmp)


def _read_clustering(path: Path, tag: str = "") -> LabeledClustering:
    if not path.is_file():
        _fail(EXIT_INPUT, f"clustering not found: {path}")
    with _exits_on(GraphUsageError, EXIT_INPUT):
        return LabeledClustering.read_tsv(path, tag)


def _read_dailies(clusters_dir: str) -> list[LabeledClustering]:
    cdir = Path(clusters_dir)
    files = sorted(cdir.glob("*.tsv"))
    if len(files) < 2:
        _fail(EXIT_INPUT, f"need >=2 daily clustering TSVs in {cdir}")
    return [_read_clustering(f, tag=f.stem) for f in files]


def _filtered(dailies, min_cluster_size: int) -> list[LabeledClustering]:
    """Each day without its small clusters."""
    return [filter_small_clusters(lc, min_cluster_size) for lc in dailies]


def _compare(dailies, min_cluster_size: int, meta_k: int, out: Path):
    """ARI matrix, dendrogram and meta-clusters of the days, written to out;
    returns the ARI matrix and each day's meta-cluster."""
    filtered = _filtered(dailies, min_cluster_size)
    matrix = pairwise_ari_matrix(filtered)
    merges = average_linkage_merges(1.0 - matrix)
    meta = cut(merges, meta_k)
    tags = [c.tag for c in filtered]
    with atomic_write(out / "ari_matrix.tsv") as tmp:
        write_ari_matrix(matrix, tags, tmp)
    with atomic_write(out / "dendrogram.tsv") as tmp:
        write_dendrogram(merges, tmp)
    _write_rows(out / "meta_clusters.tsv", zip(tags, meta))
    return matrix, meta


def _consensus(members, seed: int, path: Path) -> LabeledClustering:
    consensus = ensemble_cluster(members, seed=seed)
    with atomic_write(path) as tmp:
        consensus.write_tsv(tmp)
    return consensus


def _write_reports(days, lc: LabeledClustering, out: Path, fraction, top_tokens, prefix=""):
    """User-base and token reports of a clustering over the posts of `days`,
    each day's posts as `PostCodes`. A row's cluster is the clustering's own
    label; the rows follow the labels' string order."""
    clusters = {}
    for obj in sorted(lc.assignments):
        clusters.setdefault(str(lc.assignments[obj]), []).append(obj)
    usage, tokens = analytics.usage_tables(days, clusters)
    _write_rows(
        out / f"{prefix}clusters.tsv",
        analytics.cluster_report_rows(clusters, usage, fraction),
        "cluster\tsize\tunique_top_users\ttop_user_score",
    )
    _write_rows(
        out / f"{prefix}hashtags.tsv",
        analytics.hashtag_report_rows(usage),
        "hashtag\tuses\tunique_users\tunique_user_ratio",
    )
    _write_rows(
        out / f"{prefix}tokens.tsv",
        (
            (label, tok, count)
            for label in sorted(clusters)
            for tok, count in analytics.token_frequencies(tokens[label], top_tokens)
        ),
        "cluster\ttoken\tcount",
    )


# --- commands


@click.group()
def main():
    """Multi-view modularity clustering toolkit."""


@main.command()
@click.argument("input_path")
@click.argument("out_dir")
@_option("--url-mode")
def ingest(input_path, out_dir, url_mode):
    """Build the four daily view matrices from a post corpus."""
    posts = _load_posts(input_path)
    with _exits_on(OSError, EXIT_OUTPUT):
        for day, day_posts in group_by_day(posts).items():
            dv = build_daily_views(day_posts, day, url_mode=url_mode)
            _write_day_views(dv, Path(out_dir))
            click.echo(f"{day}: {len(dv.hashtags)} hashtags")


@main.command()
@click.argument("views_dir")
@click.argument("out_dir")
@_option("--idf")
@_option("--k", "knn_k", help="neighbors; default floor(sqrt(n))")
@_option("--seed")
@_option("--max-iter")
@_option("--resolution-tol")
@_option("--weight-tol")
def cluster(views_dir, out_dir, **params):
    """Run MVMC on one day's view matrices."""
    day_dir = Path(views_dir)
    if not day_dir.is_dir():
        _fail(EXIT_INPUT, f"not a directory: {day_dir}")
    with _exits_on(GraphUsageError, EXIT_INPUT):
        lc, clustering, trace = _cluster_day(_read_day_views(day_dir), params)
    out = Path(out_dir)
    with _exits_on(OSError, EXIT_OUTPUT):
        _write_clustering(lc, trace, out / "labels.tsv", out / "trace.tsv")
    click.echo(
        f"{clustering.n_clusters} clusters, Q={clustering.meta['modularity']:.4f},"
        f" converged={trace.converged}"
    )


@main.command()
@click.argument("clusters_dir")
@click.argument("out_dir")
@_option("--meta-k", help="number of meta-clusters")
@_option("--min-cluster-size")
def compare(clusters_dir, out_dir, meta_k, min_cluster_size):
    """Pairwise ARI matrix, dendrogram, and meta-clusters of daily clusterings."""
    dailies = _read_dailies(clusters_dir)
    if meta_k > len(dailies):
        _fail(EXIT_INPUT, f"meta-k={meta_k} out of range")
    with _exits_on(OSError, EXIT_OUTPUT):
        _compare(dailies, min_cluster_size, meta_k, Path(out_dir))
    click.echo(f"{len(dailies)} clusterings, {meta_k} meta-clusters")


@main.command()
@click.argument("clusters_dir")
@click.argument("out_path")
@_option("--min-cluster-size")
@_option("--seed")
def ensemble(clusters_dir, out_path, min_cluster_size, seed):
    """Consensus clustering of the daily clusterings in a directory."""
    filtered = _filtered(_read_dailies(clusters_dir), min_cluster_size)
    with _exits_on(OSError, EXIT_OUTPUT):
        consensus = _consensus(filtered, seed, Path(out_path))
    click.echo(f"consensus: {len(set(consensus.assignments.values()))} clusters")


@main.command()
@click.argument("input_path")
@click.argument("clustering_path")
@click.argument("out_dir")
@_option("--fraction", "top_user_fraction", help="top-user fraction")
@_option("--top-tokens")
def analyze(input_path, clustering_path, out_dir, top_user_fraction, top_tokens):
    """User-base and token reports for a clustering of hashtags."""
    days = [code_posts(day_posts) for day_posts in group_by_day(_load_posts(input_path)).values()]
    lc = _read_clustering(Path(clustering_path))
    out = Path(out_dir)
    with _exits_on(OSError, EXIT_OUTPUT):
        _write_reports(days, lc, out, top_user_fraction, top_tokens)
    click.echo(f"reports written to {out}")


@main.command()
@click.option("--mode", type=click.Choice(["graphs", "corpus"]), default="graphs")
@click.option("--n", type=int, default=60)
@click.option("--blocks", type=int, default=3)
@click.option("--views", type=int, default=2)
@click.option("--noise-views", type=int, default=0)
@click.option("--p-in", type=float, default=0.5)
@click.option("--p-out", type=float, default=0.02)
@click.option("--posts-per-day", type=int, default=70)
@_option("--seed")
@click.argument("out_dir")
def synth(mode, n, blocks, views, noise_views, p_in, p_out, posts_per_day, seed, out_dir):
    """Generate planted-partition view graphs or a toy post corpus."""
    out = Path(out_dir)
    with _exits_on(OSError, EXIT_OUTPUT):
        if mode == "graphs":
            with _exits_on(GraphUsageError, EXIT_INPUT):
                graphs, truth = planted_partition_views(
                    n, blocks, p_in, p_out, views, noise_views, seed
                )
            for i, g in enumerate(graphs):
                with atomic_write(out / f"view_{i}.edges") as tmp:
                    g.write_edge_list(tmp)
            _write_rows(out / "truth.tsv", enumerate(truth))
            click.echo(f"{len(graphs)} view graphs on {n} nodes")
        else:
            records = synthetic_corpus(seed=seed, posts_per_day=posts_per_day)
            _write_rows(out / "posts.jsonl", (
                (json.dumps({
                    "post_id": r.post_id,
                    "timestamp": r.timestamp.isoformat(),
                    "user_id": r.user_id,
                    "text": r.text,
                    "hashtags": list(r.hashtags),
                    "urls": list(r.urls),
                }),)
                for r in records
            ))
            click.echo(f"{len(records)} posts")


def _echo_table(path: Path):
    for line in path.read_text(encoding="utf-8").splitlines():
        click.echo("  " + line.replace("\t", "  "))


@main.command()
@click.argument("artifact_dir")
def report(artifact_dir):
    """Human-readable summary of a pipeline artifact directory."""
    art = Path(artifact_dir)
    daily = art / "daily_summary.tsv"
    if not daily.is_file():
        _fail(EXIT_INPUT, f"no pipeline artifacts in {art}")
    click.echo("Daily clusterings:")
    _echo_table(daily)
    summary = art / "period_summary.tsv"
    if summary.is_file():
        click.echo("Period summaries:")
        _echo_table(summary)
    for rpath in sorted((art / "reports").glob("*clusters.tsv")):
        click.echo(f"Cluster report {rpath.stem}:")
        _echo_table(rpath)


@main.command()
@click.argument("config_path")
@click.option("--set", "overrides", multiple=True, metavar="KEY=VALUE",
              help="override a config key")
def pipeline(config_path, overrides):
    """Run the full pipeline from a YAML config file."""
    cfg_path = Path(config_path)
    if not cfg_path.is_file():
        _fail(EXIT_INPUT, f"config not found: {cfg_path}")
    with open(cfg_path, encoding="utf-8") as fh:
        cfg = yaml.safe_load(fh) or {}
    if not isinstance(cfg, dict):
        _fail(EXIT_INPUT, f"config must be a mapping of keys to values: {cfg_path}")
    for item in overrides:
        key, _, value = item.partition("=")
        cfg[key] = yaml.safe_load(value)
    run_pipeline(_pipeline_params(cfg))


def run_pipeline(params: dict):
    posts_by_day = group_by_day(_load_posts(params["input"]))
    out = Path(params["output_dir"])
    with _exits_on(OSError, EXIT_OUTPUT):
        out.mkdir(parents=True, exist_ok=True)

    # a day's k-NN graphs need 2 hashtags, and more than knn_k (>= 1) when set
    need = 2 if params["knn_k"] is None else params["knn_k"] + 1
    days = []  # (views, labeled clustering, clustering, trace) per kept day
    with _exits_on(GraphUsageError, EXIT_INPUT):
        for day in list(posts_by_day):
            # a day's posts are dropped once its views and codes are built
            dv = build_daily_views(posts_by_day.pop(day), day, url_mode=params["url_mode"])
            if len(dv.hashtags) < need:
                click.echo(
                    f"warning: {day} skipped: {len(dv.hashtags)} hashtag(s) in"
                    f" {MIN_POSTS_PER_HASHTAG} or more posts, need {need}",
                    err=True,
                )
                continue
            days.append((dv, *_cluster_day(dv.as_list(), params, day.isoformat())))
    if not days:
        _fail(EXIT_INPUT, f"no day has {need} hashtags in {MIN_POSTS_PER_HASHTAG} or more posts")

    with _exits_on(OSError, EXIT_OUTPUT):
        summary = []
        for dv, lc, clustering, trace in days:
            _write_day_views(dv, out / "views")
            _write_clustering(
                lc, trace, out / "clusters" / f"{lc.tag}.tsv", out / "traces" / f"{lc.tag}.tsv"
            )
            sizes = np.bincount(clustering.labels)
            summary.append((lc.tag, len(dv.hashtags), clustering.n_clusters,
                            f"{sizes.mean():.2f}", sizes.max(), trace.converged))
        _write_rows(out / "daily_summary.tsv", summary,
                    "date\thashtags\tclusters\tmean_size\tmax_size\tconverged")
        if len(days) < 2:
            click.echo("single day: skipping temporal comparison")
            return
        matrix, meta = _compare(
            [lc for _dv, lc, _clustering, _trace in days],
            params["min_cluster_size"],
            min(params["meta_k"], len(days)),
            out,
        )

        # periods = meta-clusters; ensemble and report each period with >= 2
        # days, over the period's own days as `ensemble` does
        periods: dict[int, list[int]] = {}
        for idx, label in enumerate(meta):
            periods.setdefault(int(label), []).append(idx)
        rows = []
        for label, idxs in sorted(periods.items()):
            dailies = [days[i][1] for i in idxs]
            day_tags = ",".join(c.tag for c in dailies)
            if len(dailies) < 2:
                rows.append((label, day_tags, "-", "-", "-", "-"))
                continue
            consensus = _consensus(
                _filtered(dailies, params["min_cluster_size"]),
                params["seed"],
                out / "consensus" / f"period_{label}.tsv",
            )
            sizes = np.array(
                list(Counter(consensus.assignments.values()).values()), dtype=float
            )
            # the mean of the period's off-diagonal pairs, as average_internal_ari
            block = matrix[np.ix_(idxs, idxs)]
            internal_ari = float(np.mean(block[np.triu_indices(len(idxs), 1)]))
            # no cluster of the period's days may reach min_cluster_size
            spread = (f"{sizes.mean():.2f}", f"{sizes.std():.2f}") if len(sizes) else ("-", "-")
            rows.append((label, day_tags, len(sizes), *spread, f"{internal_ari:.4f}"))
            _write_reports(
                [days[i][0].codes for i in idxs],
                consensus,
                out / "reports",
                params["top_user_fraction"],
                params["top_tokens"],
                prefix=f"period_{label}_",
            )
        _write_rows(out / "period_summary.tsv", rows,
                    "period\tdays\tclusters\tmean_size\tstd_size\tavg_internal_ari")
    click.echo(f"pipeline complete: {out}")


if __name__ == "__main__":
    main()
