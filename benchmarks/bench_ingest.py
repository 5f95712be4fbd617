"""Time the ingest and k-NN layers on a near-paper-scale day against their
references.

Usage: PYTHONPATH=src python3 benchmarks/bench_ingest.py [--repeat 3] [--posts 10000] \
    > BENCH_ingest.json

Builds one day with the generator of `bench/corpus.py` (50 groups x 40
hashtags, `--posts` posts of 20 words, seed 7), writes it as a .jsonl file and
times, best of `--repeat`: `read_posts` on that file, which codes each post
as it reads it, and `build_daily_views` on the coded day. It times
`read_posts` with `_kernels.read_records` (the compiled reader, when it
loaded) against the per-line reference, on that file and on a copy with a
`\\u` escape in every other line's text, the lines the compiled reader
declines. Then it parses
the file into record tuples with `parse_json_record` and times
`preprocess_text` against the per-character reference
`brute_preprocess_text`, and the views against the dict-of-tuples reference
`brute_daily_views`, both from `tests/oracles.py`. It times the texts coded
in `TEXT_BATCH` batches by `_kernels.code_texts` (the compiled coder, when
it loaded) against its reference `_kernels._code_texts`. It times the period
report tables of the day, `analytics.usage_tables` on the day's codes with
the planted groups of its registry as clusters, against the per-post
reference `brute_usage_tables`. For each of the day's four views it then
times `tfidf`, and `knn_graph` on the weighted view with `_kernels.knn_edges`
(the compiled routine, when it loaded) against the same call with the scipy
reference `_kernels._knn_edges`, and `write_triplets` of the view with
`_kernels.triplet_bytes` (the compiled formatter, when it loaded) against
the same call with the f-string reference `_kernels._triplet_bytes`. It
checks that each pair agrees day array for day array, token for token,
code for code, entry for
entry, count for count, edge for edge and byte for byte, and prints one
JSON line with the times, the peak RSS of the process, the kernel backend,
the CPU count and the Python/numpy/scipy versions.
"""
import argparse
import importlib.util
import json
import os
import platform
import resource
import sys
import tempfile
import time
from collections import Counter, namedtuple
from pathlib import Path

import numpy as np
import scipy

from mvmc import _kernels
from mvmc.analytics import usage_tables
from mvmc.ingest import (
    TEXT_BATCH,
    build_daily_views,
    parse_json_record,
    preprocess_text,
    read_posts,
)
from mvmc.views import knn_graph, tfidf

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tests"))
from oracles import (  # noqa: E402
    brute_daily_views,
    brute_preprocess_text,
    brute_usage_tables,
)

# a record tuple of `parse_json_record`, with the field names the oracles read
Post = namedtuple("Post", "post_id timestamp user_id text hashtags urls")


def load_corpus_module():
    spec = importlib.util.spec_from_file_location("bench_corpus", ROOT / "bench" / "corpus.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def write_paper_day(path, posts):
    """The day's posts written to `path`; returns each hashtag's planted group."""
    corpus = load_corpus_module()
    spec = corpus.CorpusSpec(groups=50, tags_per_group=40, days=1, posts_per_day=posts,
                             words_per_post=20, churn=0.5, periods=1)
    posts, truth = corpus.generate(spec, seed=7)
    corpus.write_jsonl(posts, path)
    (groups,) = truth.values()
    return groups


def best_time(fn, repeat):
    """Least wall time of `repeat` calls, and the last call's result."""
    best = np.inf
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def same_views(views, reference) -> bool:
    registry, expected = reference
    return views.hashtags == registry and all(
        view.col_names == cols
        and all(np.array_equal(getattr(view.counts, a), getattr(counts, a))
                for a in ("data", "indices", "indptr"))
        for view, (cols, counts) in zip(views.as_list(), expected)
    )


def report_tables(posts, views, groups, repeat):
    """`usage_tables` on the day's codes against `brute_usage_tables` on its
    posts, with the registry's planted groups as the clusters."""
    clusters = {}
    for h in views.hashtags:
        clusters.setdefault(groups[h], []).append(h)
    tables_s, (usage, tokens) = best_time(lambda: usage_tables([views.codes], clusters), repeat)
    brute_s, (brute_usage, brute_tokens) = best_time(
        lambda: brute_usage_tables(posts, set(views.hashtags)), repeat)
    brute_clusters = {
        label: dict(sum((brute_tokens.get(h, Counter()) for h in hs), Counter()))
        for label, hs in clusters.items()
    }
    return {
        "usage_tables_s": tables_s,
        "brute_usage_tables_s": brute_s,
        "tables_agree": usage == brute_usage and tokens == brute_clusters,
    }


def escape_every_other_text(path, out):
    """Writes path's lines to out, every other one with its text's first
    character as a \\u escape: the same posts, half of them on lines that
    the compiled reader declines."""
    with open(path, encoding="utf-8") as fh, open(out, "w", encoding="utf-8") as dst:
        for i, line in enumerate(fh):
            head, quote, text = line.partition('"text": "')
            if i % 2 and text[:1] not in ("", '"'):
                line = f"{head}{quote}\\u{ord(text[0]):04x}{text[1:]}"
            dst.write(line)


def day_state(days):
    """Every day's arrays and post ids, and the four name tables."""
    fields = ("post_id", "user", "tags", "n_tags", "urls", "n_urls", "tokens", "n_tokens")
    corpus = next(iter(days.values())).corpus
    return ({day: (dict(posts.ids), [getattr(posts, f).tolist() for f in fields])
             for day, posts in days.items()},
            [table.names for table in (corpus.users, corpus.hashtags, corpus.urls, corpus.tokens)])


def records_layer(path, repeat):
    """`read_posts` with the bound `_kernels.read_records` and with the
    per-line reader, which `read_posts` takes when it is None, on the day and
    on its copy by `escape_every_other_text`; `records_agree` compares every
    day's arrays and the name tables. Returns the times and the days read."""
    escaped = path.with_name("escaped.jsonl")
    escape_every_other_text(path, escaped)
    bound, times, states, first = _kernels.read_records, {}, [], None
    for name, source in (("", path), ("escaped_", escaped)):
        times[f"{name}read_posts_s"], days = best_time(lambda: read_posts(source), repeat)
        _kernels.read_records = None
        try:
            times[f"reference_{name}read_posts_s"], reference = best_time(
                lambda: read_posts(source), repeat)
        finally:
            _kernels.read_records = bound
        states += [day_state(days), day_state(reference)]
        first = first or days
    return {**times, "records_agree": all(state == states[0] for state in states)}, first


def text_codes(texts, repeat):
    """The texts coded in `TEXT_BATCH` batches by the bound
    `_kernels.code_texts` and by its reference; `text_codes_agree` compares
    their codes, counts and names."""
    batches = [texts[i:i + TEXT_BATCH] for i in range(0, len(texts), TEXT_BATCH)]
    code_s, coded = best_time(lambda: list(map(_kernels.code_texts, batches)), repeat)
    reference_s, reference = best_time(lambda: list(map(_kernels._code_texts, batches)), repeat)
    return {
        "code_texts_s": code_s,
        "reference_code_texts_s": reference_s,
        "text_codes_agree": all(
            a[2] == b[2] and all(np.array_equal(x, y) and x.dtype == y.dtype
                                 for x, y in zip(a[:2], b[:2]))
            for a, b in zip(coded, reference)),
    }


def knn_layer(views, repeat):
    """Per view: its size, the `tfidf` time, and the `knn_graph` time with the
    bound `_kernels.knn_edges` and with the reference, which `knn_graph`
    picks up from the module at call time; `agree` compares their edges."""
    bound = _kernels.knn_edges
    layer = {}
    for name, view in zip(("text", "user", "url", "cooccur"), views.as_list()):
        tfidf_s, weighted = best_time(lambda: tfidf(view), repeat)
        knn_s, graph = best_time(lambda: knn_graph(weighted), repeat)
        _kernels.knn_edges = _kernels._knn_edges
        try:
            reference_s, reference = best_time(lambda: knn_graph(weighted), repeat)
        finally:
            _kernels.knn_edges = bound
        layer[name] = {
            "rows": view.n_rows,
            "cols": len(view.col_names),
            "nnz": int(view.counts.nnz),
            "edges": graph.edge_count,
            "tfidf_s": tfidf_s,
            "knn_graph_s": knn_s,
            "reference_knn_graph_s": reference_s,
            "agree": all(np.array_equal(getattr(graph, a), getattr(reference, a))
                         for a in ("edge_u", "edge_v", "edge_w")),
        }
    return layer


def triplets_layer(views, repeat, directory):
    """Per view: the file's size and the `write_triplets` time with the bound
    `_kernels.triplet_bytes` and with the reference, which `write_triplets`
    picks up from the module at call time; `agree` compares the files'
    bytes."""
    bound = _kernels.triplet_bytes
    layer = {}
    for name, view in zip(("text", "user", "url", "cooccur"), views.as_list()):
        ours, theirs = directory / f"{name}.triplets", directory / f"{name}.reference.triplets"
        write_s, _ = best_time(lambda: view.write_triplets(ours), repeat)
        _kernels.triplet_bytes = _kernels._triplet_bytes
        try:
            reference_s, _ = best_time(lambda: view.write_triplets(theirs), repeat)
        finally:
            _kernels.triplet_bytes = bound
        layer[name] = {
            "bytes": ours.stat().st_size,
            "write_triplets_s": write_s,
            "reference_write_triplets_s": reference_s,
            "agree": ours.read_bytes() == theirs.read_bytes(),
        }
    return layer


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeat", type=int, default=3)
    ap.add_argument("--posts", type=int, default=10_000,
                    help="posts of the day (the named size is the default)")
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "day.jsonl"
        groups = write_paper_day(path, args.posts)
        records, days = records_layer(path, args.repeat)
        ((day, coded),) = days.items()
        views_s, views = best_time(lambda: build_daily_views(coded, day), args.repeat)
        with open(path, encoding="utf-8") as fh:
            posts = [Post(*parse_json_record(line)) for line in fh]
        triplets = triplets_layer(views, args.repeat, Path(tmp))
    texts = [p.text for p in posts]

    tok_s, tokens = best_time(lambda: [preprocess_text(t) for t in texts], args.repeat)
    brute_tok_s, brute_tokens = best_time(
        lambda: [brute_preprocess_text(t) for t in texts], args.repeat)
    brute_views_s, reference = best_time(lambda: brute_daily_views(posts), args.repeat)

    print(json.dumps({
        "posts": len(posts),
        "hashtags": len(views.hashtags),
        **records,
        "build_daily_views_s": views_s,
        "preprocess_text_s": tok_s,
        "brute_preprocess_text_s": brute_tok_s,
        "brute_daily_views_s": brute_views_s,
        "tokens_agree": tokens == brute_tokens,
        **text_codes(texts, args.repeat),
        "views_agree": same_views(views, reference),
        **report_tables(posts, views, groups, args.repeat),
        "knn": knn_layer(views, args.repeat),
        "triplets": triplets,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "backend": _kernels.BACKEND,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }))


if __name__ == "__main__":
    main()
