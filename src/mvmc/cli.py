"""Command-line pipeline: ingest -> daily MVMC -> temporal comparison ->
meta-clustering -> per-period ensembles -> user analytics.

Exit codes: 0 ok, 2 input error, 3 output error.
"""
from __future__ import annotations

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
    DUMMY_LABEL,
    LabeledClustering,
    agglomerative_meta_cluster,
    average_linkage_merges,
    cross_level,
    pairwise_ari_matrix,
    write_ari_matrix,
    write_dendrogram,
)
from .driver import MvmcConfig, run_mvmc
from .ensemble import average_internal_ari, ensemble_cluster, filter_small_clusters
from .graph import GraphUsageError
from .ingest import VIEW_NAMES, build_daily_views, group_by_day, read_posts
from .synth import planted_partition_views, synthetic_corpus
from .views import ViewMatrix, knn_graph, tfidf

EXIT_INPUT = 2
EXIT_OUTPUT = 3


@contextmanager
def atomic_write(path: Path):
    """Write to a temp file and rename, so partial outputs never land.

    The temp name carries the process id, and the temp file is removed when
    the block or the rename raises.
    """
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
    day_dir.mkdir(parents=True, exist_ok=True)
    with atomic_write(day_dir / "registry.tsv") as tmp:
        with open(tmp, "w") as fh:
            for name in day_views.hashtags:
                fh.write(name + "\n")
    for name, view in zip(VIEW_NAMES, day_views.as_list()):
        with atomic_write(day_dir / f"{name}.triplets") as tmp:
            view.write_triplets(tmp)


def _read_day_views(day_dir: Path) -> list[ViewMatrix]:
    registry_path = day_dir / "registry.tsv"
    if not registry_path.is_file():
        _fail(EXIT_INPUT, f"missing registry: {registry_path}")
    registry = tuple(
        line.rstrip("\n") for line in open(registry_path) if line.rstrip("\n")
    )
    views = []
    for name in VIEW_NAMES:
        path = day_dir / f"{name}.triplets"
        if not path.is_file():
            _fail(EXIT_INPUT, f"missing view file: {path}")
        cols = registry if name == "cooccur" else None
        views.append(ViewMatrix.read_triplets(path, row_names=registry, col_names=cols))
    return views


def _cluster_views(views, idf, k, cfg):
    graphs = []
    for view in views:
        weighted = tfidf(view, mode=idf)
        graphs.append(knn_graph(weighted, k))
    clustering, trace = run_mvmc(graphs, cfg)
    return clustering, trace


@click.group()
def main():
    """Multi-view modularity clustering toolkit."""


@main.command()
@click.argument("input_path")
@click.argument("out_dir")
@click.option("--url-mode", type=click.Choice(["exact", "domain"]), default="exact")
def ingest(input_path, out_dir, url_mode):
    """Build the four daily view matrices from a post corpus."""
    posts = _load_posts(input_path)
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        for day, day_posts in group_by_day(posts).items():
            dv = build_daily_views(day_posts, day, url_mode=url_mode)
            _write_day_views(dv, out)
            click.echo(f"{day}: {len(dv.hashtags)} hashtags")
    except OSError as exc:
        _fail(EXIT_OUTPUT, str(exc))


@main.command()
@click.argument("views_dir")
@click.argument("out_dir")
@click.option("--idf", type=click.Choice(["ratio", "log"]), default="ratio")
@click.option("--k", type=int, default=None, help="neighbors; default floor(sqrt(n))")
@click.option("--seed", type=int, default=0)
@click.option("--max-iter", type=int, default=20)
@click.option("--resolution-tol", type=float, default=0.3)
@click.option("--weight-tol", type=float, default=0.1)
def cluster(views_dir, out_dir, idf, k, seed, max_iter, resolution_tol, weight_tol):
    """Run MVMC on one day's view matrices."""
    day_dir = Path(views_dir)
    if not day_dir.is_dir():
        _fail(EXIT_INPUT, f"not a directory: {day_dir}")
    views = _read_day_views(day_dir)
    cfg = MvmcConfig(
        max_iter=max_iter,
        resolution_tol=resolution_tol,
        weight_tol=weight_tol,
        seed=seed,
    )
    try:
        clustering, trace = _cluster_views(views, idf, k, cfg)
    except GraphUsageError as exc:
        _fail(EXIT_INPUT, str(exc))
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        registry = views[0].row_names
        lc = LabeledClustering(
            {name: int(lab) for name, lab in zip(registry, clustering.labels)}
        )
        with atomic_write(out / "labels.tsv") as tmp:
            lc.write_tsv(tmp)
        with atomic_write(out / "trace.tsv") as tmp:
            trace.write(tmp)
    except OSError as exc:
        _fail(EXIT_OUTPUT, str(exc))
    click.echo(
        f"{clustering.n_clusters} clusters, Q={clustering.meta['modularity']:.4f},"
        f" converged={trace.converged}"
    )


@main.command()
@click.argument("clusters_dir")
@click.argument("out_dir")
@click.option("--meta-k", type=int, default=5, help="number of meta-clusters")
@click.option("--min-cluster-size", type=int, default=5)
def compare(clusters_dir, out_dir, meta_k, min_cluster_size):
    """Pairwise ARI matrix, dendrogram, and meta-clusters of daily clusterings."""
    cdir = Path(clusters_dir)
    files = sorted(cdir.glob("*.tsv"))
    if len(files) < 2:
        _fail(EXIT_INPUT, f"need >=2 daily clustering TSVs in {cdir}")
    dailies = [
        filter_small_clusters(LabeledClustering.read_tsv(f, tag=f.stem), min_cluster_size)
        for f in files
    ]
    leveled = cross_level(dailies)
    matrix = pairwise_ari_matrix(leveled)
    tags = [c.tag for c in leveled]
    if not 1 <= meta_k <= len(leveled):
        _fail(EXIT_INPUT, f"meta-k={meta_k} out of range")
    meta = agglomerative_meta_cluster(matrix, meta_k)
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        with atomic_write(out / "ari_matrix.tsv") as tmp:
            write_ari_matrix(matrix, tags, tmp)
        with atomic_write(out / "dendrogram.tsv") as tmp:
            write_dendrogram(average_linkage_merges(1.0 - matrix), tmp)
        with atomic_write(out / "meta_clusters.tsv") as tmp:
            with open(tmp, "w") as fh:
                for tag, label in zip(tags, meta):
                    fh.write(f"{tag}\t{label}\n")
    except OSError as exc:
        _fail(EXIT_OUTPUT, str(exc))
    click.echo(f"{len(tags)} clusterings, {meta_k} meta-clusters")


@main.command()
@click.argument("clusters_dir")
@click.argument("out_path")
@click.option("--min-cluster-size", type=int, default=5)
@click.option("--seed", type=int, default=0)
def ensemble(clusters_dir, out_path, min_cluster_size, seed):
    """Consensus clustering of the daily clusterings in a directory."""
    cdir = Path(clusters_dir)
    files = sorted(cdir.glob("*.tsv"))
    if len(files) < 2:
        _fail(EXIT_INPUT, f"need >=2 daily clustering TSVs in {cdir}")
    dailies = [
        filter_small_clusters(LabeledClustering.read_tsv(f, tag=f.stem), min_cluster_size)
        for f in files
    ]
    leveled = cross_level(dailies)
    consensus = ensemble_cluster(leveled, seed=seed)
    try:
        Path(out_path).parent.mkdir(parents=True, exist_ok=True)
        with atomic_write(Path(out_path)) as tmp:
            consensus.write_tsv(tmp)
    except OSError as exc:
        _fail(EXIT_OUTPUT, str(exc))
    click.echo(f"consensus: {len(set(consensus.assignments.values()))} clusters")


@main.command()
@click.argument("input_path")
@click.argument("clustering_path")
@click.argument("out_dir")
@click.option("--fraction", type=float, default=1 / 3, help="top-user fraction")
@click.option("--top-tokens", type=int, default=20)
def analyze(input_path, clustering_path, out_dir, fraction, top_tokens):
    """User-base and token reports for a clustering of hashtags."""
    posts = _load_posts(input_path)
    cpath = Path(clustering_path)
    if not cpath.is_file():
        _fail(EXIT_INPUT, f"clustering not found: {cpath}")
    lc = LabeledClustering.read_tsv(cpath)
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        _write_reports(posts, lc, out, fraction, top_tokens, prefix="")
    except OSError as exc:
        _fail(EXIT_OUTPUT, str(exc))
    click.echo(f"reports written to {out}")


def _usage_tables(posts, hashtags: set):
    """Per-hashtag user->count and token Counters over a set of posts."""
    usage: dict = {}
    tokens: dict = {}
    from .ingest import preprocess_text

    for p in posts:
        tags = [h for h in set(p.hashtags) if h in hashtags]
        if not tags:
            continue
        toks = preprocess_text(p.text)
        for h in tags:
            users = usage.setdefault(h, {})
            users[p.user_id] = users.get(p.user_id, 0.0) + 1.0
            tokens.setdefault(h, Counter()).update(toks)
    return usage, tokens


def _write_reports(posts, lc: LabeledClustering, out: Path, fraction, top_tokens, prefix):
    hashtags = set(lc.assignments)
    usage, tokens = _usage_tables(posts, hashtags)
    clusters = {}
    for obj in sorted(lc.assignments):
        clusters.setdefault(lc.assignments[obj], []).append(obj)
    clusters = {i: v for i, (_k, v) in enumerate(sorted(clusters.items(), key=lambda kv: str(kv[0])))}

    rows = analytics.cluster_report_rows(clusters, usage, fraction)
    with atomic_write(out / f"{prefix}clusters.tsv") as tmp:
        with open(tmp, "w") as fh:
            fh.write("cluster\tsize\tunique_top_users\ttop_user_score\n")
            for label, size, uniq, score in rows:
                fh.write(f"{label}\t{size}\t{uniq}\t{score!r}\n")
    with atomic_write(out / f"{prefix}hashtags.tsv") as tmp:
        with open(tmp, "w") as fh:
            fh.write("hashtag\tuses\tunique_users\tunique_user_ratio\n")
            for h, uses, uniq, ratio in analytics.hashtag_report_rows(usage):
                fh.write(f"{h}\t{uses!r}\t{uniq}\t{ratio!r}\n")
    with atomic_write(out / f"{prefix}tokens.tsv") as tmp:
        with open(tmp, "w") as fh:
            fh.write("cluster\ttoken\tcount\n")
            for label in sorted(clusters):
                for tok, count in analytics.token_frequencies(
                    clusters[label], tokens, top_tokens
                ):
                    fh.write(f"{label}\t{tok}\t{count!r}\n")


@main.command()
@click.option("--mode", type=click.Choice(["graphs", "corpus"]), default="graphs")
@click.option("--n", type=int, default=60)
@click.option("--blocks", type=int, default=3)
@click.option("--views", type=int, default=2)
@click.option("--noise-views", type=int, default=0)
@click.option("--p-in", type=float, default=0.5)
@click.option("--p-out", type=float, default=0.02)
@click.option("--posts-per-day", type=int, default=70)
@click.option("--seed", type=int, default=0)
@click.argument("out_dir")
def synth(mode, n, blocks, views, noise_views, p_in, p_out, posts_per_day, seed, out_dir):
    """Generate planted-partition view graphs or a toy post corpus."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        if mode == "graphs":
            try:
                graphs, truth = planted_partition_views(
                    n, blocks, p_in, p_out, views, noise_views, seed
                )
            except GraphUsageError as exc:
                _fail(EXIT_INPUT, str(exc))
            for i, g in enumerate(graphs):
                with atomic_write(out / f"view_{i}.edges") as tmp:
                    g.write_edge_list(tmp)
            with atomic_write(out / "truth.tsv") as tmp:
                with open(tmp, "w") as fh:
                    for node, lab in enumerate(truth):
                        fh.write(f"{node}\t{lab}\n")
            click.echo(f"{len(graphs)} view graphs on {n} nodes")
        else:
            records = synthetic_corpus(seed=seed, posts_per_day=posts_per_day)
            import json

            with atomic_write(out / "posts.jsonl") as tmp:
                with open(tmp, "w") as fh:
                    for r in records:
                        fh.write(
                            json.dumps(
                                {
                                    "post_id": r.post_id,
                                    "timestamp": r.timestamp.isoformat(),
                                    "user_id": r.user_id,
                                    "text": r.text,
                                    "hashtags": list(r.hashtags),
                                    "urls": list(r.urls),
                                }
                            )
                            + "\n"
                        )
            click.echo(f"{len(records)} posts")
    except OSError as exc:
        _fail(EXIT_OUTPUT, str(exc))


@main.command()
@click.argument("artifact_dir")
def report(artifact_dir):
    """Human-readable summary of a pipeline artifact directory."""
    art = Path(artifact_dir)
    daily = art / "daily_summary.tsv"
    if not daily.is_file():
        _fail(EXIT_INPUT, f"no pipeline artifacts in {art}")
    click.echo("Daily clusterings:")
    with open(daily) as fh:
        header = fh.readline().rstrip("\n")
        click.echo("  " + header.replace("\t", "  "))
        for line in fh:
            click.echo("  " + line.rstrip("\n").replace("\t", "  "))
    summary = art / "period_summary.tsv"
    if summary.is_file():
        click.echo("Period summaries:")
        with open(summary) as fh:
            for line in fh:
                click.echo("  " + line.rstrip("\n").replace("\t", "  "))
    reports = sorted((art / "reports").glob("*clusters.tsv")) if (art / "reports").is_dir() else []
    for rpath in reports:
        click.echo(f"Cluster report {rpath.stem}:")
        with open(rpath) as fh:
            for line in fh:
                click.echo("  " + line.rstrip("\n").replace("\t", "  "))


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


def _integer(low: int):
    def parse(value) -> int:
        number = _real(value)
        if not (math.isfinite(number) and number.is_integer() and number >= low):
            raise ValueError(f"expected an integer >= {low}")
        return value if isinstance(value, int) else int(number)

    return parse


def _number(high: float = math.inf):
    def parse(value) -> float:
        number = _real(value)
        if not (0 < number <= high and math.isfinite(number)):
            bound = f"<= {high}" if high < math.inf else "finite"
            raise ValueError(f"expected a number > 0 and {bound}")
        return number

    return parse


def _choice(*options: str):
    def parse(value) -> str:
        if value not in options:
            raise ValueError(f"expected one of {', '.join(options)}")
        return value

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
    "knn_k": (None, lambda v: v if v is None else _integer(1)(v)),
    "max_iter": (20, _integer(1)),
    "resolution_tol": (0.3, _number()),
    "weight_tol": (0.1, _number()),
    "min_cluster_size": (5, _integer(1)),
    "meta_k": (5, _integer(1)),
    "top_user_fraction": (1 / 3, _number(1.0)),
    "top_tokens": (20, _integer(0)),
}


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


@main.command()
@click.argument("config_path")
@click.option("--set", "overrides", multiple=True, metavar="KEY=VALUE",
              help="override a config key")
def pipeline(config_path, overrides):
    """Run the full pipeline from a YAML config file."""
    cfg_path = Path(config_path)
    if not cfg_path.is_file():
        _fail(EXIT_INPUT, f"config not found: {cfg_path}")
    with open(cfg_path) as fh:
        cfg = yaml.safe_load(fh) or {}
    if not isinstance(cfg, dict):
        _fail(EXIT_INPUT, f"config must be a mapping of keys to values: {cfg_path}")
    for item in overrides:
        key, _, value = item.partition("=")
        cfg[key] = yaml.safe_load(value)
    run_pipeline(_pipeline_params(cfg))


def run_pipeline(params: dict):
    posts = _load_posts(params["input"])
    out = Path(params["output_dir"])
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        _fail(EXIT_OUTPUT, str(exc))

    mvmc_cfg = MvmcConfig(
        max_iter=params["max_iter"],
        resolution_tol=params["resolution_tol"],
        weight_tol=params["weight_tol"],
        seed=params["seed"],
    )
    days = group_by_day(posts)
    if not days:
        _fail(EXIT_INPUT, "no dated posts in input")

    def run_day(item):
        day, day_posts = item
        dv = build_daily_views(day_posts, day, url_mode=params["url_mode"])
        clustering, trace = _cluster_views(
            dv.as_list(), params["idf"], params["knn_k"], mvmc_cfg
        )
        return day, dv, clustering, trace

    try:
        results = [run_day(item) for item in days.items()]
    except GraphUsageError as exc:
        _fail(EXIT_INPUT, str(exc))

    dailies = []
    try:
        (out / "clusters").mkdir(exist_ok=True)
        (out / "traces").mkdir(exist_ok=True)
        with atomic_write(out / "daily_summary.tsv") as tmp:
            with open(tmp, "w") as fh:
                fh.write("date\thashtags\tclusters\tmean_size\tmax_size\tconverged\n")
                for day, dv, clustering, trace in results:
                    _write_day_views(dv, out / "views")
                    lc = LabeledClustering(
                        {
                            name: int(lab)
                            for name, lab in zip(dv.hashtags, clustering.labels)
                        },
                        tag=day.isoformat(),
                    )
                    with atomic_write(out / "clusters" / f"{day.isoformat()}.tsv") as t2:
                        lc.write_tsv(t2)
                    with atomic_write(out / "traces" / f"{day.isoformat()}.tsv") as t2:
                        trace.write(t2)
                    sizes = np.bincount(clustering.labels) if len(clustering.labels) else np.array([0])
                    fh.write(
                        f"{day.isoformat()}\t{len(dv.hashtags)}\t{clustering.n_clusters}"
                        f"\t{sizes.mean():.2f}\t{sizes.max()}\t{trace.converged}\n"
                    )
                    dailies.append(lc)
    except OSError as exc:
        _fail(EXIT_OUTPUT, str(exc))

    if len(dailies) < 2:
        click.echo("single day: skipping temporal comparison")
        return

    filtered = [
        filter_small_clusters(lc, params["min_cluster_size"]) for lc in dailies
    ]
    leveled = cross_level(filtered)
    matrix = pairwise_ari_matrix(leveled)
    tags = [c.tag for c in leveled]
    meta_k = min(params["meta_k"], len(leveled))
    meta = agglomerative_meta_cluster(matrix, meta_k)
    try:
        with atomic_write(out / "ari_matrix.tsv") as tmp:
            write_ari_matrix(matrix, tags, tmp)
        with atomic_write(out / "dendrogram.tsv") as tmp:
            write_dendrogram(average_linkage_merges(1.0 - matrix), tmp)
        with atomic_write(out / "meta_clusters.tsv") as tmp:
            with open(tmp, "w") as fh:
                for tag, label in zip(tags, meta):
                    fh.write(f"{tag}\t{label}\n")
    except OSError as exc:
        _fail(EXIT_OUTPUT, str(exc))

    # periods = meta-clusters; ensemble and report each period with >= 2 days
    periods: dict[int, list[int]] = {}
    for idx, label in enumerate(meta):
        periods.setdefault(int(label), []).append(idx)
    try:
        (out / "consensus").mkdir(exist_ok=True)
        (out / "reports").mkdir(exist_ok=True)
        with atomic_write(out / "period_summary.tsv") as tmp:
            with open(tmp, "w") as fh:
                fh.write(
                    "period\tdays\tclusters\tmean_size\tstd_size\tavg_internal_ari\n"
                )
                for label in sorted(periods):
                    idxs = periods[label]
                    day_tags = ",".join(tags[i] for i in idxs)
                    if len(idxs) < 2:
                        fh.write(f"{label}\t{day_tags}\t-\t-\t-\t-\n")
                        continue
                    members = [leveled[i] for i in idxs]
                    consensus = ensemble_cluster(members, seed=params["seed"])
                    with atomic_write(out / "consensus" / f"period_{label}.tsv") as t2:
                        consensus.write_tsv(t2)
                    sizes = np.array(
                        list(Counter(consensus.assignments.values()).values()),
                        dtype=float,
                    )
                    ari = average_internal_ari(members)
                    fh.write(
                        f"{label}\t{day_tags}\t{len(sizes)}\t{sizes.mean():.2f}"
                        f"\t{sizes.std():.2f}\t{ari:.4f}\n"
                    )
                    period_posts = [
                        p for p in posts if p.day.isoformat() in {tags[i] for i in idxs}
                    ]
                    _write_reports(
                        period_posts,
                        consensus,
                        out / "reports",
                        params["top_user_fraction"],
                        params["top_tokens"],
                        prefix=f"period_{label}_",
                    )
    except OSError as exc:
        _fail(EXIT_OUTPUT, str(exc))
    click.echo(f"pipeline complete: {out}")


if __name__ == "__main__":
    main()
