/* The compiled routines of the multi-view modularity maximizer.
 *
 * move_pass: one sweep of local moves. A line-for-line port of
 * mvmc._kernels._move_pass, which is the reference: same loop order, same
 * floating-point operations in the same order, so both give bit-identical
 * results when built without floating-point contraction (-ffp-contract=off)
 * or fast-math.
 *
 * aggregate: one level of graph aggregation. It gives, entry for entry and
 * bit for bit, what the reference mvmc._kernels._aggregate gets from scipy:
 * first-appearance dense labels, sel @ adj @ sel.T and sel @ deg, where sel
 * is the (k, size) community indicator matrix.
 *
 * maximize_once: one whole restart of the maximizer, the port of
 * mvmc.modularity._maximize_once and _sweep_to_fixpoint: refinement sweeps
 * to a fixpoint on the original graph, then coarsening levels, each a
 * fixpoint and an aggregation, built from the two routines above. Each
 * sweep's order is numpy's Generator.permutation(size), drawn here from the
 * caller's bit generator (see draw_order).
 *
 * knn_edges: the symmetric k-NN graph of a row-normalised view. It gives,
 * edge for edge and bit for bit, what the reference mvmc._kernels._knn_edges
 * gets from scipy: the similarities summed in the order of scipy's sparse
 * product, the same picks per row, and the same averaged weights.
 *
 * Arrays are C-contiguous; deg, comm_tot and agg_deg are row-major
 * (rows, nviews). The caller checks shapes and dtypes; this file checks every
 * index it reads from an array before using it.
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define MOVE_PASS_BAD_INDEX (-1)
#define MOVE_PASS_NO_MEMORY (-2)

/* A numpy bit generator's next_uint32, called with its state_address. */
typedef uint32_t (*next_uint32_fn)(void *state);

/* The next count 8-byte slots of a routine's one scratch block, as a double
 * or an int64 array, and *cursor moved past them. Each routine allocates the
 * block once, takes its doubles first and its int64s after them, and frees
 * it once. */
_Static_assert(sizeof(double) == 8 && sizeof(int64_t) == 8, "scratch slots are 8 bytes");
static void *take(double **cursor, size_t count)
{
    void *slots = *cursor;
    *cursor += count;
    return slots;
}

/* numpy's random_interval for max < 2**32: a uniform draw from [0, max],
 * masking 32-bit draws to the smallest all-ones mask >= max and drawing
 * again while the value exceeds max. */
static uint64_t random_interval(next_uint32_fn next_uint32, void *state, uint64_t max)
{
    if (max == 0)
        return 0;
    uint64_t mask = max;
    mask |= mask >> 1;
    mask |= mask >> 2;
    mask |= mask >> 4;
    mask |= mask >> 8;
    mask |= mask >> 16;
    uint64_t value;
    while ((value = (next_uint32(state) & mask)) > max)
        ;
    return value;
}

/* order (n) receives what Generator.permutation(n) returns for the generator
 * whose state and next_uint32 are given, and the generator advances as it
 * would: arange(n) shuffled by numpy's Fisher-Yates, which swaps each i from
 * n-1 down to 1 with j = random_interval(i). Returns 0, or
 * MOVE_PASS_BAD_INDEX if n is negative or needs 64-bit draws (n > 2**32),
 * for which numpy draws differently.
 */
int64_t draw_order(int64_t n, void *state, next_uint32_fn next_uint32, int64_t *order)
{
    if (n < 0 || (uint64_t)n > (uint64_t)UINT32_MAX + 1)
        return MOVE_PASS_BAD_INDEX;
    for (int64_t i = 0; i < n; i++)
        order[i] = i;
    for (int64_t i = n - 1; i >= 1; i--) {
        int64_t j = (int64_t)random_interval(next_uint32, state, (uint64_t)i);
        int64_t tmp = order[i];
        order[i] = order[j];
        order[j] = tmp;
    }
    return 0;
}

/* One sweep; move_pass without its allocation. link (n) must be all zero on
 * entry and is left so on a normal return; touched (n) is scratch. */
static int64_t sweep(
    int64_t n,
    int64_t nviews,
    int64_t nnz,
    const int64_t *indptr,
    const int64_t *indices,
    const double *data,
    const double *deg,
    const double *alpha,
    int64_t *comm,
    double *comm_tot,
    int64_t *comm_size,
    int64_t *empty_stack,
    int64_t n_empty,
    const int64_t *order,
    double eps,
    double *link,
    int64_t *touched,
    double *gain_out,
    int64_t *moves_out)
{
    int64_t status = MOVE_PASS_BAD_INDEX;
    double total_gain = 0.0;
    int64_t n_moves = 0;
    for (int64_t oi = 0; oi < n; oi++) {
        int64_t i = order[oi];
        if (i < 0 || i >= n)
            goto done;
        int64_t ci = comm[i];
        if (ci < 0 || ci >= n)
            goto done;
        const double *deg_i = deg + i * nviews;
        /* detach i from its community */
        for (int64_t v = 0; v < nviews; v++)
            comm_tot[ci * nviews + v] -= deg_i[v];
        comm_size[ci] -= 1;
        int64_t start = indptr[i], stop = indptr[i + 1];
        if (start < 0 || start > stop || stop > nnz)
            goto done;
        int64_t n_touched = 0;
        for (int64_t p = start; p < stop; p++) {
            int64_t j = indices[p];
            if (j < 0 || j >= n)
                goto done;
            if (j == i)
                continue;
            int64_t cj = comm[j];
            if (cj < 0 || cj >= n)
                goto done;
            if (link[cj] == 0.0) {
                if (n_touched == n)
                    goto done;
                touched[n_touched++] = cj;
            }
            link[cj] += data[p];
        }
        /* score of joining community c: 2*link - 2*sum_v alpha_v*deg_iv*tot_cv */
        int64_t best_c = ci;
        double null_i = 0.0;
        for (int64_t v = 0; v < nviews; v++)
            null_i += alpha[v] * deg_i[v] * comm_tot[ci * nviews + v];
        double best_score = 2.0 * link[ci] - 2.0 * null_i;
        double stay_score = best_score;
        for (int64_t t = 0; t < n_touched; t++) {
            int64_t c = touched[t];
            if (c == ci)
                continue;
            double null_c = 0.0;
            for (int64_t v = 0; v < nviews; v++)
                null_c += alpha[v] * deg_i[v] * comm_tot[c * nviews + v];
            double score = 2.0 * link[c] - 2.0 * null_c;
            if (score > best_score + eps) {
                best_score = score;
                best_c = c;
            }
        }
        /* splitting off as a singleton scores exactly zero */
        if (n_empty > 0 && comm_size[ci] > 0 && 0.0 > best_score + eps) {
            best_c = empty_stack[n_empty - 1];
            if (best_c < 0 || best_c >= n)
                goto done;
            best_score = 0.0;
        }
        for (int64_t t = 0; t < n_touched; t++)
            link[touched[t]] = 0.0;
        link[ci] = 0.0;
        if (best_c != ci) {
            if (comm_size[best_c] == 0)
                n_empty -= 1;
            if (comm_size[ci] == 0) {
                if (n_empty < 0 || n_empty >= n)
                    goto done;
                empty_stack[n_empty] = ci;
                n_empty += 1;
            }
            total_gain += best_score - stay_score;
            n_moves += 1;
        }
        comm[i] = best_c;
        comm_size[best_c] += 1;
        for (int64_t v = 0; v < nviews; v++)
            comm_tot[best_c * nviews + v] += deg_i[v];
    }
    status = n_empty;
done:
    *gain_out = total_gain;
    *moves_out = n_moves;
    return status;
}

/* Returns the new n_empty, or MOVE_PASS_BAD_INDEX if an index read from the
 * inputs lies out of range, or MOVE_PASS_NO_MEMORY if scratch allocation
 * fails. *gain_out and *moves_out receive the total gain and move count.
 */
int64_t move_pass(
    int64_t n,
    int64_t nviews,
    int64_t nnz,
    const int64_t *indptr,
    const int64_t *indices,
    const double *data,
    const double *deg,
    const double *alpha,
    int64_t *comm,
    double *comm_tot,
    int64_t *comm_size,
    int64_t *empty_stack,
    int64_t n_empty,
    const int64_t *order,
    double eps,
    double *gain_out,
    int64_t *moves_out)
{
    size_t rows = n > 0 ? (size_t)n : 1;
    double *link = malloc(rows * (sizeof(double) + sizeof(int64_t)));
    *gain_out = 0.0;
    *moves_out = 0;
    if (link == NULL)
        return MOVE_PASS_NO_MEMORY;
    memset(link, 0, rows * sizeof(double));
    int64_t status = sweep(n, nviews, nnz, indptr, indices, data, deg, alpha, comm,
                           comm_tot, comm_size, empty_stack, n_empty, order, eps, link,
                           (int64_t *)(link + rows), gain_out, moves_out);
    free(link);
    return status;
}

/* One aggregation; aggregate without its allocation. iwork holds 5 * size
 * int64 and dwork 2 * size doubles of scratch; dwork must be all zero on
 * entry and is left so on a normal return. */
static int64_t aggregate_level(
    int64_t size,
    int64_t nviews,
    int64_t nnz,
    const int64_t *indptr,
    const int64_t *indices,
    const double *data,
    const double *deg,
    const int64_t *comm,
    int64_t *dense,
    int64_t *agg_indptr,
    int64_t *agg_indices,
    double *agg_data,
    double *agg_deg,
    int64_t *nnz_out,
    int64_t *iwork,
    double *dwork)
{
    int64_t status = MOVE_PASS_BAD_INDEX;
    int64_t k = 0, out = 0;
    int64_t *label = iwork;  /* comm id -> dense */
    int64_t *first = iwork + size;  /* first member */
    int64_t *member_next = iwork + 2 * size;
    int64_t *node_next = iwork + 3 * size;
    int64_t *comm_next = iwork + 4 * size;
    double *node_sum = dwork;
    double *comm_sum = dwork + size;
    for (int64_t i = 0; i < size; i++) {
        label[i] = -1;
        first[i] = -1;
        node_next[i] = -1;
        comm_next[i] = -1;
    }
    for (int64_t i = 0; i < size; i++) {
        int64_t c = comm[i];
        if (c < 0 || c >= size)
            goto done;
        if (label[c] < 0)
            label[c] = k++;
        dense[i] = label[c];
    }
    /* members of each community, linked in ascending node order */
    for (int64_t i = size - 1; i >= 0; i--) {
        member_next[i] = first[dense[i]];
        first[dense[i]] = i;
    }

    agg_indptr[0] = 0;
    for (int64_t c = 0; c < k; c++) {
        double *deg_c = agg_deg + c * nviews;
        for (int64_t v = 0; v < nviews; v++)
            deg_c[v] = 0.0;
        int64_t node_head = -2, node_count = 0;
        for (int64_t i = first[c]; i >= 0; i = member_next[i]) {
            for (int64_t v = 0; v < nviews; v++)
                deg_c[v] += deg[i * nviews + v];
            int64_t lo = indptr[i], hi = indptr[i + 1];
            if (lo < 0 || lo > hi || hi > nnz)
                goto done;
            for (int64_t p = lo; p < hi; p++) {
                int64_t j = indices[p];
                if (j < 0 || j >= size)
                    goto done;
                node_sum[j] += data[p];
                if (node_next[j] == -1) {
                    node_next[j] = node_head;
                    node_head = j;
                    node_count++;
                }
            }
        }
        int64_t comm_head = -2, comm_count = 0;
        for (int64_t t = 0; t < node_count; t++) {
            int64_t j = node_head;
            if (node_sum[j] != 0.0) {
                int64_t d = dense[j];
                comm_sum[d] += node_sum[j];
                if (comm_next[d] == -1) {
                    comm_next[d] = comm_head;
                    comm_head = d;
                    comm_count++;
                }
            }
            node_head = node_next[j];
            node_next[j] = -1;
            node_sum[j] = 0.0;
        }
        for (int64_t t = 0; t < comm_count; t++) {
            int64_t d = comm_head;
            if (comm_sum[d] != 0.0) {
                if (out == nnz)
                    goto done;
                agg_indices[out] = d;
                agg_data[out] = comm_sum[d];
                out++;
            }
            comm_head = comm_next[d];
            comm_next[d] = -1;
            comm_sum[d] = 0.0;
        }
        agg_indptr[c + 1] = out;
    }
    status = k;
done:
    *nnz_out = out;
    return status;
}

/* Aggregates the level graph (indptr, indices, data) of `size` nodes with
 * per-view degrees deg (size, nviews) by the communities in comm, whose ids
 * lie in [0, size).
 *
 * dense (size) receives each node's community renumbered in order of first
 * appearance; the return value is their count k. Community c's super-node
 * has row c of the aggregated graph, in agg_indptr (k + 1), agg_indices and
 * agg_data (*nnz_out entries, at most nnz), and agg_deg row c (k, nviews).
 *
 * The arithmetic is scipy's: the product sel @ adj @ sel.T runs as two
 * csr_matmat passes. Row c of the first product sums the rows of c's members
 * in ascending node order, entries in stored order; its columns form a list
 * linked in order of first touch and are read back newest first, and exact
 * zero sums are dropped. The second pass folds those columns into
 * communities the same way. Degrees are summed from 0.0 in ascending node
 * order, as csr_matvecs does. Returns MOVE_PASS_BAD_INDEX or
 * MOVE_PASS_NO_MEMORY as move_pass does.
 */
int64_t aggregate(
    int64_t size,
    int64_t nviews,
    int64_t nnz,
    const int64_t *indptr,
    const int64_t *indices,
    const double *data,
    const double *deg,
    const int64_t *comm,
    int64_t *dense,
    int64_t *agg_indptr,
    int64_t *agg_indices,
    double *agg_data,
    double *agg_deg,
    int64_t *nnz_out)
{
    size_t cells = size > 0 ? (size_t)size : 1;
    double *dwork = malloc(cells * (2 * sizeof(double) + 5 * sizeof(int64_t)));
    *nnz_out = 0;
    if (dwork == NULL)
        return MOVE_PASS_NO_MEMORY;
    memset(dwork, 0, 2 * cells * sizeof(double));
    int64_t status = aggregate_level(size, nviews, nnz, indptr, indices, data, deg, comm,
                                     dense, agg_indptr, agg_indices, agg_data, agg_deg,
                                     nnz_out, (int64_t *)(dwork + 2 * cells), dwork);
    free(dwork);
    return status;
}

/* Scratch of one maximize_once call, sized for the original graph: every
 * level graph has at most its n nodes and nnz entries. */
struct restart_work {
    int64_t *comm, *comm_size, *empty_stack, *order, *touched, *dense, *iwork;
    double *comm_tot, *link, *dwork;
    next_uint32_fn next_uint32;
    void *state;
    double eps;
    int64_t *counts;  /* sweeps, moves, levels */
};

/* _sweep_to_fixpoint: sweeps over the level graph of `size` nodes, from the
 * partition in w->comm, until a sweep moves nothing or gains at most eps.
 * Returns 1 if any sweep got past that test, 0 if none did, or an error. */
static int64_t sweep_to_fixpoint(
    struct restart_work *w,
    int64_t size,
    int64_t nviews,
    int64_t nnz,
    const int64_t *indptr,
    const int64_t *indices,
    const double *data,
    const double *deg,
    const double *alpha)
{
    int64_t *comm = w->comm;
    /* comm_tot summed from zero in ascending node order, as np.add.at does */
    for (int64_t c = 0; c < size; c++) {
        w->comm_size[c] = 0;
        for (int64_t v = 0; v < nviews; v++)
            w->comm_tot[c * nviews + v] = 0.0;
    }
    for (int64_t i = 0; i < size; i++) {
        int64_t c = comm[i];
        if (c < 0 || c >= size)
            return MOVE_PASS_BAD_INDEX;
        w->comm_size[c] += 1;
        for (int64_t v = 0; v < nviews; v++)
            w->comm_tot[c * nviews + v] += deg[i * nviews + v];
    }
    int64_t n_empty = 0;
    for (int64_t c = 0; c < size; c++)
        if (w->comm_size[c] == 0)
            w->empty_stack[n_empty++] = c;
    int64_t moved_any = 0;
    for (;;) {
        double gain;
        int64_t n_moves;
        if (draw_order(size, w->state, w->next_uint32, w->order) < 0)
            return MOVE_PASS_BAD_INDEX;
        n_empty = sweep(size, nviews, nnz, indptr, indices, data, deg, alpha,
                        comm, w->comm_tot, w->comm_size, w->empty_stack, n_empty,
                        w->order, w->eps, w->link, w->touched, &gain, &n_moves);
        if (n_empty < 0)
            return n_empty;
        w->counts[0] += 1;
        w->counts[1] += n_moves;
        if (n_moves == 0 || gain <= w->eps)
            return moved_any;
        moved_any = 1;
    }
}

/* One restart on the graph of n nodes (indptr, indices, data; nnz entries)
 * with degrees deg (n, nviews) and null-model coefficients alpha (nviews).
 * labels (n) receives the partition, dense in order of first appearance.
 * Sweep orders are drawn from the bit generator (state, next_uint32), which
 * the caller must hold for the whole call. counts (3) receives the sweeps,
 * the moves and the levels aggregated. Returns 0, or MOVE_PASS_BAD_INDEX or
 * MOVE_PASS_NO_MEMORY as move_pass does.
 */
int64_t maximize_once(
    int64_t n,
    int64_t nviews,
    int64_t nnz,
    const int64_t *indptr,
    const int64_t *indices,
    const double *data,
    const double *deg,
    const double *alpha,
    double eps,
    int64_t max_levels,
    void *state,
    next_uint32_fn next_uint32,
    int64_t *labels,
    int64_t *counts)
{
    int64_t status = 0;
    size_t rows = n > 0 ? (size_t)n : 1, entries = nnz > 0 ? (size_t)nnz : 1;
    size_t cells = rows * (nviews > 0 ? (size_t)nviews : 1);
    double *block = malloc((3 * rows + 3 * cells + 2 * entries) * sizeof(double)
                           + (13 * rows + 2 + 2 * entries) * sizeof(int64_t));
    counts[0] = counts[1] = counts[2] = 0;
    if (block == NULL)
        return MOVE_PASS_NO_MEMORY;
    struct restart_work w = {
        .next_uint32 = next_uint32, .state = state, .eps = eps, .counts = counts,
    };
    /* two level graphs: each aggregation reads one and writes the other */
    int64_t *lvl_indptr[2], *lvl_indices[2];
    double *lvl_data[2], *lvl_deg[2];
    double *cursor = block;
    w.link = take(&cursor, rows);  /* link and dwork must start at zero */
    w.dwork = take(&cursor, 2 * rows);
    memset(block, 0, 3 * rows * sizeof(double));
    w.comm_tot = take(&cursor, cells);
    for (int b = 0; b < 2; b++) {
        lvl_data[b] = take(&cursor, entries);
        lvl_deg[b] = take(&cursor, cells);
    }
    w.comm = take(&cursor, rows);
    w.comm_size = take(&cursor, rows);
    w.empty_stack = take(&cursor, rows);
    w.order = take(&cursor, rows);
    w.touched = take(&cursor, rows);
    w.dense = take(&cursor, rows);
    w.iwork = take(&cursor, 5 * rows);
    for (int b = 0; b < 2; b++) {
        lvl_indptr[b] = take(&cursor, rows + 1);
        lvl_indices[b] = take(&cursor, entries);
    }

    int64_t *assignment = labels;  /* original node -> community */
    for (int64_t i = 0; i < n; i++)
        assignment[i] = i;
    for (int64_t round = 0; n > 0 && round < max_levels; round++) {
        /* refinement: single-node moves on the original graph, starting from
         * the current assignment (the identity partition on the first round) */
        for (int64_t i = 0; i < n; i++)
            w.comm[i] = assignment[i];
        int64_t moved = sweep_to_fixpoint(&w, n, nviews, nnz, indptr, indices, data, deg, alpha);
        if (moved < 0) {
            status = moved;
            goto done;
        }
        if (!moved)
            break;
        /* multi-level coarsening until moves dry up at every scale; each
         * aggregation also renumbers the communities it was given densely */
        int64_t cur = 0, agg_nnz;
        int64_t k = aggregate_level(n, nviews, nnz, indptr, indices, data, deg, w.comm,
                                    assignment, lvl_indptr[cur], lvl_indices[cur],
                                    lvl_data[cur], lvl_deg[cur], &agg_nnz, w.iwork, w.dwork);
        if (k < 0) {
            status = k;
            goto done;
        }
        counts[2] += 1;
        int64_t size = n;
        for (int64_t level = 0; level < max_levels; level++) {
            if (k == size)
                break;
            size = k;
            for (int64_t c = 0; c < k; c++)
                w.comm[c] = c;
            moved = sweep_to_fixpoint(&w, size, nviews, agg_nnz, lvl_indptr[cur], lvl_indices[cur],
                                      lvl_data[cur], lvl_deg[cur], alpha);
            if (moved < 0) {
                status = moved;
                goto done;
            }
            if (!moved)
                break;
            int64_t next = 1 - cur;
            k = aggregate_level(size, nviews, agg_nnz, lvl_indptr[cur], lvl_indices[cur],
                                lvl_data[cur], lvl_deg[cur], w.comm, w.dense,
                                lvl_indptr[next], lvl_indices[next], lvl_data[next],
                                lvl_deg[next], &agg_nnz, w.iwork, w.dwork);
            if (k < 0) {
                status = k;
                goto done;
            }
            counts[2] += 1;
            cur = next;
            for (int64_t i = 0; i < n; i++)
                assignment[i] = w.dense[assignment[i]];
        }
    }
done:
    free(block);
    return status;
}

/* True if similarity (a, column ca) ranks below (b, column cb): a lower value,
 * or an equal value at a higher column. */
static int ranks_below(double a, int64_t ca, double b, int64_t cb)
{
    return a < b || (a == b && ca > cb);
}

/* Restores the heap (heap_val, heap_col; size entries) below slot t, where
 * every parent ranks below its children, so the root is the lowest kept. */
static void sift_down(double *heap_val, int64_t *heap_col, int64_t size, int64_t t)
{
    double val = heap_val[t];
    int64_t col = heap_col[t];
    for (;;) {
        int64_t child = 2 * t + 1;
        if (child >= size)
            break;
        if (child + 1 < size
            && ranks_below(heap_val[child + 1], heap_col[child + 1], heap_val[child],
                           heap_col[child]))
            child++;
        if (!ranks_below(heap_val[child], heap_col[child], val, col))
            break;
        heap_val[t] = heap_val[child];
        heap_col[t] = heap_col[child];
        t = child;
    }
    heap_val[t] = val;
    heap_col[t] = col;
}

/* dst (m) receives the ids src[0..m), or 0..m-1 when src is NULL, stably
 * ordered by key[id], which lies in [0, nkeys). count holds nkeys + 1 int64
 * of scratch. */
static void sort_by_key(int64_t m, int64_t nkeys, const int64_t *key, const int64_t *src,
                        int64_t *dst, int64_t *count)
{
    for (int64_t c = 0; c <= nkeys; c++)
        count[c] = 0;
    for (int64_t t = 0; t < m; t++)
        count[key[t] + 1]++;
    for (int64_t c = 0; c < nkeys; c++)
        count[c + 1] += count[c];
    for (int64_t t = 0; t < m; t++) {
        int64_t id = src != NULL ? src[t] : t;
        dst[count[key[id]]++] = id;
    }
}

/* The symmetric k-NN graph of the n rows of a row-normalised CSR matrix
 * (indptr, indices, data; ncols columns, nnz entries, canonical: columns
 * ascending and distinct within each row).
 *
 * Row i's similarities are those of scipy's csr_matmat for normed @ normed.T,
 * where normed holds each row's entries in reverse stored order, as
 * diags(inv) @ counts leaves them: the entries of row i are walked from last
 * to first, each column's rows in ascending order, and each similarity
 * starts from 0.0 and is summed with +=. The diagonal and every
 * value not > floor (NaN included) are dropped, and the k best that remain
 * are kept, ranked by -value and then by the lower column. Each pair u < v
 * picked in one direction or both is written once, in ascending (u, v)
 * order, to edge_u, edge_v and edge_w (at least n * k entries each), weighted
 * (d_uv + d_vu) * 0.5, or d * 0.5 when only one direction was picked.
 *
 * Returns the edge count, or MOVE_PASS_BAD_INDEX if k is outside [1, n) or
 * the CSR arrays are malformed, or MOVE_PASS_NO_MEMORY if scratch allocation
 * fails.
 */
int64_t knn_edges(
    int64_t n,
    int64_t ncols,
    int64_t nnz,
    const int64_t *indptr,
    const int64_t *indices,
    const double *data,
    int64_t k,
    double floor,
    int64_t *edge_u,
    int64_t *edge_v,
    double *edge_w)
{
    if (n < 2 || k < 1 || k >= n || ncols < 0 || nnz < 0 || indptr[0] != 0
        || indptr[n] != nnz)
        return MOVE_PASS_BAD_INDEX;
    for (int64_t i = 0; i < n; i++)
        if (indptr[i] > indptr[i + 1])
            return MOVE_PASS_BAD_INDEX;
    for (int64_t p = 0; p < nnz; p++)
        if (indices[p] < 0 || indices[p] >= ncols)
            return MOVE_PASS_BAD_INDEX;

    size_t entries = nnz > 0 ? (size_t)nnz : 1, picks_max = (size_t)n * (size_t)k;
    size_t rows = (size_t)n, heap = (size_t)k;
    double *block = malloc((entries + rows + heap + picks_max) * sizeof(double)
                           + ((size_t)ncols + entries + 3 * rows + heap + 4 * picks_max + 3)
                                 * sizeof(int64_t));
    if (block == NULL)
        return MOVE_PASS_NO_MEMORY;
    double *cursor = block;
    double *col_val = take(&cursor, entries);
    double *sums = take(&cursor, rows);
    double *heap_val = take(&cursor, heap);
    double *pick_val = take(&cursor, picks_max);
    int64_t *col_ptr = take(&cursor, (size_t)ncols + 1);
    int64_t *col_row = take(&cursor, entries);  /* the transpose */
    int64_t *stamp = take(&cursor, rows);  /* row that last touched */
    int64_t *touched = take(&cursor, rows + 1);
    int64_t *heap_col = take(&cursor, heap);
    int64_t *pick_lo = take(&cursor, picks_max);  /* min(i, j) */
    int64_t *pick_hi = take(&cursor, picks_max);  /* max(i, j) */
    int64_t *by_hi = take(&cursor, picks_max);
    int64_t *by_pair = take(&cursor, picks_max);
    int64_t *count = take(&cursor, rows + 1);

    /* column-major transpose by counting sort; rows ascending in each column */
    for (int64_t c = 0; c <= ncols; c++)
        col_ptr[c] = 0;
    for (int64_t p = 0; p < nnz; p++)
        col_ptr[indices[p] + 1]++;
    for (int64_t c = 0; c < ncols; c++)
        col_ptr[c + 1] += col_ptr[c];
    for (int64_t i = 0; i < n; i++)
        for (int64_t p = indptr[i]; p < indptr[i + 1]; p++) {
            int64_t q = col_ptr[indices[p]]++;
            col_row[q] = i;
            col_val[q] = data[p];
        }
    for (int64_t c = ncols; c > 0; c--)  /* undo the shift of the fill */
        col_ptr[c] = col_ptr[c - 1];
    col_ptr[0] = 0;

    for (int64_t i = 0; i < n; i++) {
        stamp[i] = -1;
        sums[i] = 0.0;  /* and reset after each row */
    }
    int64_t n_picks = 0;
    for (int64_t i = 0; i < n; i++) {
        int64_t n_touched = 0;
        for (int64_t p = indptr[i + 1] - 1; p >= indptr[i]; p--) {
            int64_t j = indices[p];
            double v = data[p];
            for (int64_t q = col_ptr[j]; q < col_ptr[j + 1]; q++) {
                int64_t r = col_row[q];
                sums[r] += v * col_val[q];
                touched[n_touched] = r;  /* kept on first touch only */
                n_touched += stamp[r] != i;
                stamp[r] = i;
            }
        }
        int64_t kept = 0;
        for (int64_t t = 0; t < n_touched; t++) {
            int64_t r = touched[t];
            double s = sums[r];
            sums[r] = 0.0;
            if (r == i || !(s > floor))
                continue;
            if (kept < k) {  /* sift up */
                int64_t slot = kept++;
                while (slot > 0) {
                    int64_t parent = (slot - 1) / 2;
                    if (!ranks_below(s, r, heap_val[parent], heap_col[parent]))
                        break;
                    heap_val[slot] = heap_val[parent];
                    heap_col[slot] = heap_col[parent];
                    slot = parent;
                }
                heap_val[slot] = s;
                heap_col[slot] = r;
            } else if (ranks_below(heap_val[0], heap_col[0], s, r)) {
                heap_val[0] = s;
                heap_col[0] = r;
                sift_down(heap_val, heap_col, kept, 0);
            }
        }
        for (int64_t t = 0; t < kept; t++) {
            int64_t j = heap_col[t];
            pick_lo[n_picks] = i < j ? i : j;
            pick_hi[n_picks] = i < j ? j : i;
            pick_val[n_picks] = heap_val[t];
            n_picks++;
        }
    }

    /* picks in ascending (lo, hi) order; a pair picked both ways is adjacent */
    sort_by_key(n_picks, n, pick_hi, NULL, by_hi, count);
    sort_by_key(n_picks, n, pick_lo, by_hi, by_pair, count);
    int64_t m = 0;
    for (int64_t t = 0; t < n_picks; t++) {
        int64_t a = by_pair[t];
        double w = pick_val[a];
        if (t + 1 < n_picks) {
            int64_t b = by_pair[t + 1];
            if (pick_lo[b] == pick_lo[a] && pick_hi[b] == pick_hi[a]) {
                w += pick_val[b];
                t++;
            }
        }
        edge_u[m] = pick_lo[a];
        edge_v[m] = pick_hi[a];
        edge_w[m] = w * 0.5;
        m++;
    }
    free(block);
    return m;
}
