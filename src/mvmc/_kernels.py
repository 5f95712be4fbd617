"""The compiled kernels: the sweep, the aggregation and whole restarts of the
modularity maximizer, the graph its restarts share, the k-NN graph of a view,
the text of a view's .triplets file and the coded records of .jsonl and
.tsv lines.

`move_pass` runs one sweep of local moves and `aggregate` one level of graph
aggregation. Each has a reference implementation here: `_move_pass` in plain
Python, and `_aggregate`, which gets the aggregated graph from scipy's sparse
products. `_move_pass.c` holds a compiled routine for each: a port of
`_move_pass` with the same floating-point operations in the same order, and
an aggregation that reproduces scipy's products entry for entry and bit for
bit. So both backends give identical partitions.

The third compiled routine, `run_restarts`, runs all the restarts of one
`maximize` call in one call: each is `modularity._maximize_once`, the
reference, which drives the two kernels from Python one sweep and one level at
a time on the Generator `default_rng([seed, r])`. Each sweep's order must be
what the reference draws, `rng.permutation(size)`. The C routine steps its own
copy of numpy's PCG64 from the state that generator starts in, which
`seeded_states` gets from numpy's own SeedSequence and PCG64 and caches per
seed, and shuffles `arange(size)` with numpy's Fisher-Yates (for i from
size-1 down to 1, swap i with j = random_interval(i), which masks
`next_uint32` to the smallest all-ones mask >= i and draws again while the
value exceeds i). It writes each generator's final state back into the state
rows it was given. That contract rests on numpy internals, so at load the
compiled draw (`draw_order`) is compared with `default_rng([s, r]).permutation`
for a fixed seed at a few sizes, and the generator's final state with
numpy's; on any difference none of the compiled routines is used.

The fourth, `combined_graph`, builds the graph the restarts share: the sum
over views of a coefficient times the view's symmetric adjacency, from the
views' edge arrays laid end to end. Its reference `_combined_graph` does it
with numpy's sort and searchsorted. The compiled routine counting-sorts the
entries by column and then stably by row, sums each entry from 0.0 in view
order and drops exact zeros, so both give the same arrays bit for bit.

The fifth, `knn_edges`, builds the symmetric k-NN graph of a row-normalised
view; its reference `_knn_edges` is scipy's sparse product followed by a
per-row lexsort. The compiled routine keeps the product's order of
operations: row i's entries are walked from last to first (the order in
which scipy's `diags(inv) @ counts` leaves them), each column's rows in
ascending order, and each similarity starts from 0.0 and is summed with +=.
It then drops the diagonal and values not above WEIGHT_FLOOR, keeps each
row's k best by -value and then the lower column, and averages the picks
with their transpose, so both give the same edges bit for bit.

The sixth, `format_triplets`, writes the text of a view's .triplets file;
its reference `_triplet_bytes` formats each entry with an f-string. The
compiled routine formats no number. `triplet_bytes` hands it three tables of
text that Python has already encoded, each with int64 offsets: each row name
and each column name followed by a TAB, and the `repr` of each distinct value
followed by a newline. The routine copies the three pieces of each entry in
CSR order into a buffer of the exact size, so both give the same bytes by
construction.

The seventh, `read_records`, parses and codes a batch of .jsonl or .tsv
lines; its reference is `ingest.read_posts` line by line. It takes only
plain lines (see parse_json and parse_tsv in the C source); the caller
parses the lines it declines with `ingest.parse_json_record` or
`ingest.parse_tsv_record` and a second call codes the batch with their
fields in line order. It tokenises an ASCII text itself: the four passes of
`ingest.preprocess_text` in its order, each replacing every match in the
previous pass's output by one space, then the runs of [A-Za-z0-9],
lowercased. A declined line's non-ASCII text comes as its `preprocess_text`
tokens joined by spaces, so the Unicode rules stay in Python. Its name
tables last from batch to batch of one read, in a state of READER_SLOTS
int64s, so each code is the corpus's.

At import the C source is built with the local C compiler into a per-user
cache and loaded through ctypes; `move_pass`, `aggregate`, `combined_graph`,
`knn_edges` and `triplet_bytes` are then checked wrappers around it. With no
`cc` or `gcc` on PATH, when the build or load fails, or when the draw
differs, they are `_move_pass`, `_aggregate`, `_combined_graph`,
`_knn_edges` and `_triplet_bytes`, and `run_restarts`, `run_seeded`,
`draw_order`, `format_triplets` and `read_records` are None; no switch
chooses. `BACKEND` names the implementation that runs: "c" or "python".
benchmarks/bench_kernels.py and benchmarks/bench_ingest.py compare the two.
"""
from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shutil
from pathlib import Path

import numpy as np

from .graph import WEIGHT_FLOOR, densify_labels

# No -ffast-math and no floating-point contraction: either could change the
# rounding of a score and with it the partition. No -march=native, so a cached
# build also runs on another machine that shares the home directory.
CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
SOURCE = Path(__file__).with_name("_move_pass.c")
_BAD_INDEX, _NO_MEMORY = -1, -2  # the C kernel's error returns
MAX_LEVELS = 100  # rounds of a restart, and coarsening levels of a round
# the load-time check of the compiled draw against Generator.permutation
DRAW_CHECK_SEED, DRAW_CHECK_SIZES = 20200803, (1, 2, 17, 1000)
STATE_SLOTS = 6  # uint64 slots of a PCG64 state row; see `_state_row`
READER_SLOTS, READER_OUTPUTS = 64, 10  # read_records' state and outputs
_LOW64 = (1 << 64) - 1


def _move_pass(
    indptr,
    indices,
    data,
    deg,
    alpha,
    comm,
    comm_tot,
    comm_size,
    empty_stack,
    n_empty,
    order,
    eps,
):
    """One sweep of local moves over nodes in `order`.

    indptr/indices/data: combined CSR adjacency, both directions, with
        per-view coefficients w_v/(2 m_v) already folded into the weights;
        diagonal entries (aggregated intra weight) are skipped.
    deg: (n, V) per-view weighted degrees of the current super-nodes.
    alpha: (V,) null-model coefficients w_v * gamma_v / (2 m_v)^2.
    comm: (n,) current community of each node, updated in place.
    comm_tot: (n, V) per-community sums of deg, updated in place.
    comm_size: (n,) member counts per community, updated in place.
    empty_stack/n_empty: pool of currently unused community ids, so a node
        can split off into a singleton when leaving beats every neighbour.

    Returns (total modularity gain, number of moves, new n_empty).
    """
    n = comm.shape[0]
    nviews = alpha.shape[0]
    link = np.zeros(n, dtype=np.float64)
    touched = np.empty(n, dtype=np.int64)
    total_gain = 0.0
    n_moves = 0
    for oi in range(n):
        i = order[oi]
        ci = comm[i]
        # detach i from its community
        for v in range(nviews):
            comm_tot[ci, v] -= deg[i, v]
        comm_size[ci] -= 1
        n_touched = 0
        for p in range(indptr[i], indptr[i + 1]):
            j = indices[p]
            if j == i:
                continue
            cj = comm[j]
            if link[cj] == 0.0:
                touched[n_touched] = cj
                n_touched += 1
            link[cj] += data[p]
        # score of joining community c: 2*link - 2*sum_v alpha_v*deg_iv*tot_cv
        best_c = ci
        null_i = 0.0
        for v in range(nviews):
            null_i += alpha[v] * deg[i, v] * comm_tot[ci, v]
        best_score = 2.0 * link[ci] - 2.0 * null_i
        stay_score = best_score
        for t in range(n_touched):
            c = touched[t]
            if c == ci:
                continue
            null_c = 0.0
            for v in range(nviews):
                null_c += alpha[v] * deg[i, v] * comm_tot[c, v]
            score = 2.0 * link[c] - 2.0 * null_c
            if score > best_score + eps:
                best_score = score
                best_c = c
        # splitting off as a singleton scores exactly zero
        if n_empty > 0 and comm_size[ci] > 0 and 0.0 > best_score + eps:
            best_c = empty_stack[n_empty - 1]
            best_score = 0.0
        for t in range(n_touched):
            link[touched[t]] = 0.0
        link[ci] = 0.0
        if best_c != ci:
            if comm_size[best_c] == 0:
                n_empty -= 1
            if comm_size[ci] == 0:
                empty_stack[n_empty] = ci
                n_empty += 1
            total_gain += best_score - stay_score
            n_moves += 1
        comm[i] = best_c
        comm_size[best_c] += 1
        for v in range(nviews):
            comm_tot[best_c, v] += deg[i, v]
    return total_gain, n_moves, n_empty


def _aggregate(indptr, indices, data, deg, comm):
    """One level of graph aggregation: every community becomes a super-node.

    indptr/indices/data: the level graph's CSR adjacency, `size` nodes.
    deg: (size, V) per-view degrees of its nodes.
    comm: (size,) community of each node, ids in [0, size).

    Returns (dense, k, agg_indptr, agg_indices, agg_data, agg_deg): each
    node's community renumbered 0..k-1 in order of first appearance, the
    number of communities, the aggregated CSR adjacency with int64 index
    arrays (intra-community weight on the diagonal) and the (k, V) summed
    degrees.
    """
    from scipy import sparse

    size = len(comm)
    dense = densify_labels(comm)
    k = int(dense.max()) + 1 if size else 0
    adj = sparse.csr_matrix((data, indices, indptr), shape=(size, size))
    sel = sparse.csr_matrix((np.ones(size), (dense, np.arange(size))), shape=(k, size))
    agg = (sel @ adj @ sel.T).tocsr()
    return (
        dense,
        k,
        agg.indptr.astype(np.int64),
        agg.indices.astype(np.int64),
        agg.data,
        np.asarray(sel @ deg),
    )


def _combined_graph(n, offsets, edge_u, edge_v, edge_w, coeffs):
    """The CSR arrays (int64 indptr and indices, float64 data) of the sum over
    views of coeffs[v] times the view's symmetric adjacency, on n nodes.

    View v's edges, each stored once with u < v, are entries
    offsets[v]:offsets[v + 1] of edge_u, edge_v and edge_w. Bit for bit
    scipy's `acc = acc + g.adjacency() * c` from an empty matrix, over the
    views with c != 0 in view order: entries in (row, column) order, each the
    sum ((c_1 w_1 + c_2 w_2) + c_3 w_3) + ... in view order, and exact zeros
    (a cancelled sum, or a product that underflows) dropped. The views are
    added one at a time because np.add.reduceat's pairwise inner loop rounds
    differently once three views share an entry.
    """
    keys, values = [], []
    for lo, hi, c in zip(offsets[:-1], offsets[1:], coeffs):
        if c != 0.0:
            u, v = edge_u[lo:hi], edge_v[lo:hi]
            keys.append(np.concatenate([u * n + v, v * n + u]))
            x = edge_w[lo:hi] * c
            values.append(np.concatenate([x, x]))
    union = np.sort(np.concatenate(keys)) if keys else np.empty(0, dtype=np.int64)
    union = union[np.diff(union, prepend=-1) != 0]  # each key once; keys are >= 0
    acc = np.zeros(len(union))
    for k, x in zip(keys, values):
        pos = np.searchsorted(union, k)
        acc[pos] = acc[pos] + x
    keep = acc != 0.0
    union, data = union[keep], acc[keep]
    indptr = np.searchsorted(union, np.arange(n + 1) * n)
    return indptr, union - np.repeat(np.arange(n) * n, np.diff(indptr)), data


def _state_row(state):
    """numpy's PCG64 `bit_generator.state` as the compiled routines' state
    row: state >> 64, the state's low 64 bits, inc >> 64, inc's low 64 bits,
    has_uint32 and uinteger."""
    pcg = state["state"]
    return (pcg["state"] >> 64, pcg["state"] & _LOW64, pcg["inc"] >> 64, pcg["inc"] & _LOW64,
            state["has_uint32"], state["uinteger"])


@functools.lru_cache(maxsize=32)
def _seeded_table(seed, count):
    """The read-only state rows of `default_rng([seed, r])` for r < count."""
    table = np.array(
        [_state_row(np.random.PCG64(np.random.SeedSequence([seed, r])).state)
         for r in range(count)], dtype=np.uint64,
    ).reshape(count, STATE_SLOTS)
    table.flags.writeable = False
    return table


def seeded_states(seed, restarts):
    """A new (len(restarts), STATE_SLOTS) uint64 array of the state rows in
    which `default_rng([seed, r])` starts, for r in the range `restarts`.

    numpy's SeedSequence and PCG64 compute each row once per seed; later
    calls copy them, so no Generator is built per restart."""
    return _seeded_table(seed, restarts.stop)[restarts.start:restarts.stop:restarts.step].copy()


def _knn_edges(indptr, indices, data, ncols, k):
    """The symmetric k-NN edges of the rows of a row-normalised CSR matrix.

    indptr/indices/data: n rows over ncols columns, canonical (columns
        ascending and distinct within each row).
    k: the neighbours each row picks, 1 <= k < n.

    Row similarities are the sparse product normed @ normed.T, with each row
    of normed in reverse stored order, the order scipy's `diags(inv) @ counts`
    gives; the product sums in that order, and keeping it keeps the edge
    weights of graphs built that way bit for bit. Each row picks its k best other rows, dropping values not
    above WEIGHT_FLOOR (NaN included) and ranking by -value, then by the
    lower column. Returns (u, v, w): each pair u < v picked in either
    direction once, in ascending (u, v) order, weighted (d_uv + d_vu) * 0.5,
    or d * 0.5 when picked one way only.
    """
    from scipy import sparse

    indptr = np.asarray(indptr)
    n = len(indptr) - 1
    lengths = np.diff(indptr)
    rev = np.repeat(indptr[:-1] + indptr[1:] - 1, lengths) - np.arange(len(indices))
    normed = sparse.csr_matrix((data[rev], indices[rev], indptr), shape=(n, ncols))
    sims = (normed @ normed.T).tocsr()
    sims.setdiag(0.0)
    sims.data[~(sims.data > WEIGHT_FLOOR)] = 0.0  # never linked, NaN included
    sims.eliminate_zeros()

    # each row's picks, as positions into sims: ranked by -value then
    # column, first k kept
    s_indptr, s_indices, s_data = sims.indptr, sims.indices, sims.data
    picks = [lo + np.lexsort((s_indices[lo:hi], -s_data[lo:hi]))[:k]
             for lo, hi in zip(s_indptr[:-1], s_indptr[1:])]
    rows = np.repeat(np.arange(n), [len(p) for p in picks])
    pos = np.concatenate(picks)
    directed = sparse.csr_matrix((s_data[pos], (rows, s_indices[pos])), shape=(n, n))
    sym = sparse.triu((directed + directed.T) * 0.5, k=1).tocoo()
    return sym.row.astype(np.int64), sym.col.astype(np.int64), sym.data


def _triplet_bytes(indptr, indices, data, row_names, col_names):
    """The UTF-8 text of a view's .triplets file: `row<TAB>col<TAB>value`
    for each entry of the CSR arrays, in stored order, each value as its
    `repr`."""
    indptr, cols, vals = indptr.tolist(), indices.tolist(), data.tolist()
    return "".join(
        f"{name}\t{col_names[c]}\t{v!r}\n"
        for r, name in enumerate(row_names)
        for c, v in zip(cols[indptr[r]:indptr[r + 1]], vals[indptr[r]:indptr[r + 1]])
    ).encode("utf-8")


def _pieces(strings, end):
    """The UTF-8 text of `strings`, each followed by the character `end`,
    which none of them may hold, and the int64 offsets where each one's piece
    starts, then the text's length."""
    text = end.join((*strings, "")).encode("utf-8")
    ends = (np.frombuffer(text, np.uint8) == ord(end)).nonzero()[0]
    return text, np.concatenate(([0], ends + 1))


def _build_library() -> Path | None:
    """Path of the compiled kernel, building it into the cache when missing.

    The cache is $XDG_CACHE_HOME/mvmc, or ~/.cache/mvmc. The file name
    carries the sha256 of the source and the flags, so a changed source gets
    a new build. A build is written under a temporary name and moved into
    place, so concurrent builds never expose a partial file. Returns None
    when there is no compiler or the build fails.
    """
    compiler = shutil.which("cc") or shutil.which("gcc")
    if compiler is None:
        return None
    root = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(root):
        root = os.path.join(os.path.expanduser("~"), ".cache")
    directory = Path(root) / "mvmc"
    try:
        # hashed in pieces: reading the whole source at every import raises
        # the import's peak memory with the source's size
        digest = hashlib.sha256()
        with open(SOURCE, "rb") as fh:
            for piece in iter(functools.partial(fh.read, 8192), b""):
                digest.update(piece)
        digest.update("\0".join(CFLAGS).encode())
        library = directory / f"move_pass-{digest.hexdigest()}.so"
        directory.mkdir(mode=0o700, parents=True, exist_ok=True)
        info = directory.stat()
        if info.st_uid != os.getuid() or info.st_mode & 0o022:
            return None  # others could plant a library here
        if library.is_file():
            return library
    except OSError:
        return None
    # only a build needs these: subprocess alone adds ~2-3 ms to every start
    import subprocess
    import tempfile

    try:
        fd, tmp = tempfile.mkstemp(prefix=library.name, suffix=".tmp", dir=directory)
        os.close(fd)
        try:
            subprocess.run(
                [compiler, *CFLAGS, "-x", "c", "-", "-o", tmp],
                input=SOURCE.read_bytes(), capture_output=True, check=True, timeout=120,
            )
            os.replace(tmp, library)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    except (OSError, subprocess.SubprocessError):
        return None
    return library


def _load_c_kernels():
    """Wrappers (move_pass, aggregate, draw_order, run_seeded, run_restarts,
    combined_graph, knn_edges, format_triplets, triplet_bytes, read_records)
    around the compiled routines, or None when they are unavailable or the
    compiled draw differs from numpy's."""
    library = _build_library()
    if library is None:
        return None
    try:
        compiled = ctypes.CDLL(str(library))
        kernel, aggregator = compiled.move_pass, compiled.aggregate
        drawer, restarter = compiled.draw_order, compiled.run_restarts
        combiner, neighbours = compiled.combined_graph, compiled.knn_edges
        formatter, reader = compiled.format_triplets, compiled.read_records
    except (OSError, AttributeError):
        return None
    i64, f64, ptr = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
    kernel.restype = i64
    kernel.argtypes = [
        i64, i64, i64, ptr, ptr, ptr, ptr, ptr, ptr, ptr, ptr, ptr, i64, ptr, f64,
        ctypes.POINTER(f64), ctypes.POINTER(i64),
    ]
    aggregator.restype = i64
    aggregator.argtypes = [i64, i64, i64, *[ptr] * 10, ctypes.POINTER(i64)]
    drawer.restype = i64
    drawer.argtypes = [i64, ptr, ptr]
    restarter.restype = i64
    restarter.argtypes = [i64, i64, i64, *[ptr] * 5, f64, i64, i64, ptr, ptr, ptr]
    combiner.restype = i64
    combiner.argtypes = [i64, i64, i64, *[ptr] * 8]
    neighbours.restype = i64
    neighbours.argtypes = [i64, i64, i64, ptr, ptr, ptr, i64, f64, ptr, ptr, ptr]
    formatter.restype = i64
    formatter.argtypes = [i64, i64, i64, i64, ptr, ptr, ptr, *[ctypes.c_char_p, ptr, i64] * 3,
                          ptr, i64]
    reader.restype = i64
    reader.argtypes = [i64, ptr, i64, ptr, i64, i64, ptr, i64, ptr, ptr]

    def c_move_pass(
        indptr,
        indices,
        data,
        deg,
        alpha,
        comm,
        comm_tot,
        comm_size,
        empty_stack,
        n_empty,
        order,
        eps,
    ):
        """`_move_pass` run by the compiled kernel; same arguments and result.

        Shapes and dtypes are checked before any pointer is passed. Read-only
        inputs are converted when needed; the arrays updated in place must
        already be C-contiguous with the exact dtype, because an update to a
        converted copy would be lost. ctypes releases the GIL for the call.
        """
        n = len(comm)
        nviews = len(alpha)
        nnz = len(indices)
        args = [
            _input(indptr, np.int64, (n + 1,), "indptr"),
            _input(indices, np.int64, (nnz,), "indices"),
            _input(data, np.float64, (nnz,), "data"),
            _input(deg, np.float64, (n, nviews), "deg"),
            _input(alpha, np.float64, (nviews,), "alpha"),
            _in_place(comm, np.int64, (n,), "comm"),
            _in_place(comm_tot, np.float64, (n, nviews), "comm_tot"),
            _in_place(comm_size, np.int64, (n,), "comm_size"),
            _in_place(empty_stack, np.int64, (n,), "empty_stack"),
        ]
        if not 0 <= n_empty <= n:
            raise ValueError(f"n_empty={n_empty} is outside [0, {n}]")
        order = _input(order, np.int64, (n,), "order")
        gain, moves = f64(), i64()
        status = kernel(
            n, nviews, nnz, *(a.ctypes.data for a in args), n_empty,
            order.ctypes.data, eps, ctypes.byref(gain), ctypes.byref(moves),
        )
        _check_status("move_pass", status)
        return gain.value, moves.value, status

    def c_aggregate(indptr, indices, data, deg, comm):
        """`_aggregate` run by the compiled routine; same arguments and result.

        Inputs are checked and converted as in `c_move_pass`. The outputs are
        allocated at their largest sizes (k <= size, aggregated nnz <= nnz)
        and returned as views of their used parts.
        """
        size = len(comm)
        nnz = len(indices)
        deg = np.asarray(deg)
        nviews = deg.shape[1] if deg.ndim == 2 else 0
        args = [
            _input(indptr, np.int64, (size + 1,), "indptr"),
            _input(indices, np.int64, (nnz,), "indices"),
            _input(data, np.float64, (nnz,), "data"),
            _input(deg, np.float64, (size, nviews), "deg"),
            _input(comm, np.int64, (size,), "comm"),
        ]
        dense = np.empty(size, dtype=np.int64)
        agg_indptr = np.empty(size + 1, dtype=np.int64)
        agg_indices = np.empty(nnz, dtype=np.int64)
        agg_data = np.empty(nnz, dtype=np.float64)
        agg_deg = np.empty((size, nviews), dtype=np.float64)
        outputs = [dense, agg_indptr, agg_indices, agg_data, agg_deg]
        agg_nnz = i64()
        k = aggregator(
            size, nviews, nnz, *(a.ctypes.data for a in args + outputs),
            ctypes.byref(agg_nnz),
        )
        _check_status("aggregate", k)
        m = agg_nnz.value
        return dense, k, agg_indptr[: k + 1], agg_indices[:m], agg_data[:m], agg_deg[:k]

    def c_draw_order(state, n):
        """What `permutation(n)` returns for the Generator in the state row
        `state` (a writable uint64 array of STATE_SLOTS; see `_state_row`),
        drawn by the compiled routine, which advances `state` in place as
        numpy's generator would advance."""
        state = _in_place(state, np.uint64, (STATE_SLOTS,), "state")
        order = np.empty(n, dtype=np.int64)
        _check_status("draw_order", drawer(n, state.ctypes.data, order.ctypes.data))
        return order

    def c_run_seeded(graph0, deg0, alpha, states, eps):
        """One `modularity._maximize_once` per state row of `states`, a
        writable (restarts, STATE_SLOTS) uint64 array, all run by one call of
        the compiled routine: restart r draws from the generator in row r and
        leaves the row in that generator's final state.

        Returns a (labels, (sweeps, moves, levels)) per restart; the labels
        are rows of one array. The graph, degrees and alpha are checked and
        converted as in `c_move_pass`.
        """
        indptr, indices, data = graph0
        deg0 = np.asarray(deg0)
        n = len(deg0)
        nviews = len(alpha)
        nnz = len(indices)
        args = [
            _input(indptr, np.int64, (n + 1,), "indptr"),
            _input(indices, np.int64, (nnz,), "indices"),
            _input(data, np.float64, (nnz,), "data"),
            _input(deg0, np.float64, (n, nviews), "deg"),
            _input(alpha, np.float64, (nviews,), "alpha"),
        ]
        states = _in_place(states, np.uint64, (*np.shape(states)[:1], STATE_SLOTS), "states")
        count = len(states)
        labels = np.empty((count, n), dtype=np.int64)
        counts = np.empty((count, 3), dtype=np.int64)
        status = restarter(
            n, nviews, nnz, *(a.ctypes.data for a in args), eps, MAX_LEVELS, count,
            states.ctypes.data, labels.ctypes.data, counts.ctypes.data,
        )
        _check_status("run_restarts", status)
        return list(zip(labels, map(tuple, counts.tolist())))

    def c_run_restarts(graph0, deg0, alpha, seed, restarts, eps):
        """`modularity._restarts` run by one call of the compiled routine;
        same arguments and result. Each restart starts from its cached
        `seeded_states` row, copied for the call."""
        return c_run_seeded(graph0, deg0, alpha, seeded_states(seed, restarts), eps)

    def c_combined_graph(n, offsets, edge_u, edge_v, edge_w, coeffs):
        """`_combined_graph` run by the compiled routine; same arguments and
        result.

        Inputs are checked and converted as in `c_move_pass`. The outputs are
        allocated for both directions of every edge and returned as views of
        their used parts. A falling offset, an edge with u >= v or an id
        outside [0, n), or a pair repeated within a view that is added raises
        ValueError.
        """
        nviews, nedges = len(coeffs), len(edge_u)
        args = [
            _input(offsets, np.int64, (nviews + 1,), "offsets"),
            _input(edge_u, np.int64, (nedges,), "edge_u"),
            _input(edge_v, np.int64, (nedges,), "edge_v"),
            _input(edge_w, np.float64, (nedges,), "edge_w"),
            _input(coeffs, np.float64, (nviews,), "coeffs"),
        ]
        indptr = np.empty(n + 1, dtype=np.int64)
        indices = np.empty(2 * nedges, dtype=np.int64)
        data = np.empty(2 * nedges, dtype=np.float64)
        m = combiner(n, nviews, nedges, *(a.ctypes.data for a in args + [indptr, indices, data]))
        _check_status("combined_graph", m)
        return indptr, indices[:m], data[:m]

    def c_knn_edges(indptr, indices, data, ncols, k):
        """`_knn_edges` run by the compiled routine; same arguments and result.

        Inputs are checked and converted as in `c_move_pass`. The outputs are
        allocated for n * k edges, the most the picks can give, and returned
        as views of their used parts.
        """
        n = len(indptr) - 1
        nnz = len(indices)
        if not 0 < k < n:
            raise ValueError(f"k={k} is outside [1, {n})")
        args = [
            _input(indptr, np.int64, (n + 1,), "indptr"),
            _input(indices, np.int64, (nnz,), "indices"),
            _input(data, np.float64, (nnz,), "data"),
        ]
        edge_u = np.empty(n * k, dtype=np.int64)
        edge_v = np.empty(n * k, dtype=np.int64)
        edge_w = np.empty(n * k, dtype=np.float64)
        m = neighbours(
            n, ncols, nnz, *(a.ctypes.data for a in args), k, WEIGHT_FLOOR,
            edge_u.ctypes.data, edge_v.ctypes.data, edge_w.ctypes.data,
        )
        _check_status("knn_edges", m)
        return edge_u[:m], edge_v[:m], edge_w[:m]

    def c_format_triplets(indptr, indices, codes, rows, cols, values, out):
        """Fill `out`, a writable C-contiguous uint8 array, with the text of a
        view's .triplets file by the compiled routine, and return it.

        rows, cols and values are `_pieces` tables, (text, offsets): each row
        name and each column name with a TAB, each value's repr with a
        newline. Entry p is written as its row's piece, column piece
        indices[p] and value piece codes[p]. `out` must have exactly the
        text's length; on any bad index, offset or size this raises
        ValueError and leaves `out` untouched.
        """
        (row_text, row_at), (col_text, col_at), (value_text, value_at) = rows, cols, values
        if not all(isinstance(text, bytes) for text in (row_text, col_text, value_text)):
            raise ValueError("each table's text must be bytes")
        n, nnz = len(indptr) - 1, len(indices)
        args = [
            _input(indptr, np.int64, (n + 1,), "indptr"),
            _input(indices, np.int64, (nnz,), "indices"),
            _input(codes, np.int64, (nnz,), "codes"),
            _input(row_at, np.int64, (n + 1,), "row offsets"),
            _input(col_at, np.int64, (len(col_at),), "column offsets"),
            _input(value_at, np.int64, (len(value_at),), "value offsets"),
            _in_place(out, np.uint8, (len(out),), "out"),
        ]
        indptr, indices, codes, row_at, col_at, value_at, out = args
        status = formatter(
            n, len(col_at) - 1, len(value_at) - 1, nnz, indptr.ctypes.data,
            indices.ctypes.data, codes.ctypes.data, row_text, row_at.ctypes.data, len(row_text),
            col_text, col_at.ctypes.data, len(col_text), value_text, value_at.ctypes.data,
            len(value_text), out.ctypes.data, len(out),
        )
        _check_status("format_triplets", status)
        return out

    def c_triplet_bytes(indptr, indices, data, row_names, col_names):
        """`_triplet_bytes` run by the compiled routine, as a memoryview of
        the bytes.

        Each distinct value is formatted once, by `repr`; the routine copies
        the pieces into a buffer of the exact size, found from their lengths.
        Equal values share a piece, so 0.0 and -0.0 would too; a view holds
        no zeros. The distinct values come from a sort and a first-of-run
        mask: `np.unique` took ~35 µs more per call, which outweighed the gain
        on corpora of many small views.
        """
        values = np.sort(data)
        first = np.ones(len(values), bool)  # the first of each run of equal values
        first[1:] = values[1:] != values[:-1]
        values = values[first]
        codes = values.searchsorted(data)
        tables = [_pieces(row_names, "\t"), _pieces(col_names, "\t"),
                  _pieces(map(repr, values.tolist()), "\n")]
        rows, cols, reprs = [at[1:] - at[:-1] for _, at in tables]  # piece lengths
        size = rows @ (indptr[1:] - indptr[:-1]) + cols[indices].sum() + reprs[codes].sum()
        out = np.empty(int(size), np.uint8)
        return c_format_triplets(indptr, indices, codes, *tables, out).data

    def c_read_records(state, text=None, at=(0,), side=b"", side_at=(0,), tsv=False):
        """read_records on the lines text[at[i]:at[i + 1]] of the bytes-like
        text, .tsv lines if tsv is set and .jsonl lines otherwise, the j-th
        declined line taking the side record side[side_at[j]:side_at[j + 1]],
        with the read's state (READER_SLOTS int64 zeros before its first
        batch); with no text it frees the state.
        Returns the number of declined lines and copies of the outputs: days,
        rows, tags, urls, tokens, ids, id_at, names, name_at and keys, int32
        arrays but for the bytes of ids and names. Offsets that fall or run
        past their text, and side records that do not fit the declined
        lines, raise ValueError."""
        state = _in_place(state, np.int64, (READER_SLOTS,), "state")
        if text is None:
            return reader(-1, None, 0, None, 0, 0, None, 0, None, state.ctypes.data)
        at, side_at = (_input(a, np.int64, (len(a),), "offsets") for a in (at, side_at))
        declined = reader(len(at) - 1, np.frombuffer(text, np.uint8).ctypes.data, len(text),
                          at.ctypes.data, bool(tsv), len(side_at) - 1,
                          np.frombuffer(side, np.uint8).ctypes.data, len(side),
                          side_at.ctypes.data, state.ctypes.data)
        _check_status("read_records", declined)
        out = state[:2 * READER_OUTPUTS].tolist()
        return declined, [ctypes.string_at(a, n) if k in (5, 7)  # ids, names
                          else np.frombuffer(ctypes.string_at(a, 4 * n), np.int32)
                          for k, (a, n) in enumerate(zip(out[::2], out[1::2]))]

    if not _draws_match(c_draw_order):
        return None
    return (c_move_pass, c_aggregate, c_draw_order, c_run_seeded, c_run_restarts,
            c_combined_graph, c_knn_edges, c_format_triplets, c_triplet_bytes, c_read_records)


def _draws_match(draw_order):
    """True if draw_order(state, n), from the `seeded_states` rows of
    DRAW_CHECK_SEED and restarts 0 and 1, gives what `permutation(n)` of
    `default_rng([DRAW_CHECK_SEED, r])` does at each of DRAW_CHECK_SIZES in
    turn, and leaves each row in that generator's final state."""
    states = seeded_states(DRAW_CHECK_SEED, range(2))
    for r, state in enumerate(states):
        numpys = np.random.default_rng([DRAW_CHECK_SEED, r])
        for n in DRAW_CHECK_SIZES:
            if not np.array_equal(draw_order(state, n), numpys.permutation(n)):
                return False
        if tuple(state.tolist()) != _state_row(numpys.bit_generator.state):
            return False
    return True


def _check_status(routine, status):
    if status == _NO_MEMORY:
        raise MemoryError(f"{routine}: no memory for scratch buffers")
    if status == _BAD_INDEX:
        raise ValueError(f"{routine}: an index in the inputs is out of range")


def _input(a, dtype, shape, name):
    """`a` as a C-contiguous `dtype` array of `shape`, converted if needed."""
    a = np.asarray(a)
    if not np.can_cast(a.dtype, dtype, "safe"):
        raise ValueError(f"{name} has dtype {a.dtype}, expected {np.dtype(dtype)}")
    a = np.ascontiguousarray(a.astype(dtype, copy=False))
    if a.shape != shape:
        raise ValueError(f"{name} has shape {a.shape}, expected {shape}")
    return a


def _in_place(a, dtype, shape, name):
    """`a` itself, once it is a writable C-contiguous `dtype` array of `shape`."""
    if not (
        isinstance(a, np.ndarray)
        and a.dtype == dtype
        and a.flags.c_contiguous
        and a.flags.writeable
    ):
        raise ValueError(f"{name} must be a writable C-contiguous {np.dtype(dtype)} array")
    if a.shape != shape:
        raise ValueError(f"{name} has shape {a.shape}, expected {shape}")
    return a


move_pass, aggregate, combined_graph = _move_pass, _aggregate, _combined_graph
knn_edges, triplet_bytes = _knn_edges, _triplet_bytes
# compiled only
draw_order = run_seeded = run_restarts = format_triplets = read_records = None
BACKEND = "python"
_compiled = _load_c_kernels()
if _compiled is not None:
    (move_pass, aggregate, draw_order, run_seeded, run_restarts, combined_graph, knn_edges,
     format_triplets, triplet_bytes, read_records) = _compiled
    BACKEND = "c"
