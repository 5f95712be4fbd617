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
 * run_restarts: whole restarts of the maximizer, the port of
 * mvmc.modularity._maximize_once and _sweep_to_fixpoint: refinement sweeps
 * to a fixpoint on the original graph, then coarsening levels, each a
 * fixpoint and an aggregation, built from the two routines above. Each
 * restart steps its own copy of numpy's PCG64 from a state the caller seeds,
 * and each sweep's order is Generator.permutation(size) (see draw_order).
 *
 * knn_edges: the symmetric k-NN graph of a row-normalised view. It gives,
 * edge for edge and bit for bit, what the reference mvmc._kernels._knn_edges
 * gets from scipy: the similarities summed in the order of scipy's sparse
 * product, the same picks per row, and the same averaged weights.
 *
 * combined_graph: the CSR arrays of the views' adjacencies scaled by
 * per-view coefficients and summed, entry for entry and bit for bit what the
 * reference mvmc._kernels._combined_graph gets from numpy.
 *
 * format_triplets: the text of a view's .triplets file, byte for byte what
 * the reference mvmc._kernels._triplet_bytes formats. It formats no number:
 * it copies pieces of text that the caller has already formatted, the row
 * name, the column name and the value of each entry, in CSR order.
 *
 * code_texts: a batch of posts' texts tokenised and coded, token for token
 * what the reference mvmc._kernels._code_texts gets from
 * mvmc.ingest.preprocess_text and a dict of names. ASCII texts are
 * tokenised here; the caller tokenises the others and passes their tokens.
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

/* numpy's PCG64: a 128-bit LCG stepped before each 64-bit output, which is
 * XSL-RR (the state's halves xor-ed, rotated right by its top 6 bits).
 * next_uint32 serves each output as two halves, low first, keeping the high
 * one in uinteger while has_uint32 is set. Building needs a compiler with
 * unsigned __int128; without one the Python references run. */
typedef unsigned __int128 u128;
#define PCG64_MULTIPLIER (((u128)0x2360ED051FC65DA4ULL << 64) | 0x4385DF649FCCF645ULL)
#define STATE_SLOTS 6

struct pcg64 {
    u128 state, inc;
    uint64_t has_uint32, uinteger;
};

/* A state row holds the STATE_SLOTS uint64 state >> 64, the state's low
 * half, inc >> 64, inc's low half, has_uint32 and uinteger: numpy's
 * bit_generator.state in that order. */
static void load_state(const uint64_t *row, struct pcg64 *g)
{
    g->state = ((u128)row[0] << 64) | row[1];
    g->inc = ((u128)row[2] << 64) | row[3];
    g->has_uint32 = row[4];
    g->uinteger = row[5];
}

static void store_state(const struct pcg64 *g, uint64_t *row)
{
    row[0] = (uint64_t)(g->state >> 64);
    row[1] = (uint64_t)g->state;
    row[2] = (uint64_t)(g->inc >> 64);
    row[3] = (uint64_t)g->inc;
    row[4] = g->has_uint32;
    row[5] = g->uinteger;
}

static uint32_t next_uint32(struct pcg64 *g)
{
    if (g->has_uint32) {
        g->has_uint32 = 0;
        return (uint32_t)g->uinteger;
    }
    g->state = g->state * PCG64_MULTIPLIER + g->inc;
    uint64_t x = (uint64_t)(g->state >> 64) ^ (uint64_t)g->state;
    unsigned rot = (unsigned)(g->state >> 122);
    uint64_t next = (x >> rot) | (x << ((-rot) & 63));
    g->has_uint32 = 1;
    g->uinteger = next >> 32;
    return (uint32_t)next;
}

/* numpy's random_interval for max < 2**32: a uniform draw from [0, max],
 * masking 32-bit draws to the smallest all-ones mask >= max and drawing
 * again while the value exceeds max. */
static uint64_t random_interval(struct pcg64 *g, uint64_t max)
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
    while ((value = (next_uint32(g) & mask)) > max)
        ;
    return value;
}

/* order (n) receives what Generator.permutation(n) returns for the generator
 * g, and g advances as numpy's would: arange(n) shuffled by numpy's
 * Fisher-Yates, which swaps each i from n-1 down to 1 with
 * j = random_interval(i). Returns 0, or MOVE_PASS_BAD_INDEX if n is negative
 * or needs 64-bit draws (n > 2**32), for which numpy draws differently.
 */
static int64_t shuffle_order(int64_t n, struct pcg64 *g, int64_t *order)
{
    if (n < 0 || (uint64_t)n > (uint64_t)UINT32_MAX + 1)
        return MOVE_PASS_BAD_INDEX;
    for (int64_t i = 0; i < n; i++)
        order[i] = i;
    for (int64_t i = n - 1; i >= 1; i--) {
        int64_t j = (int64_t)random_interval(g, (uint64_t)i);
        int64_t tmp = order[i];
        order[i] = order[j];
        order[j] = tmp;
    }
    return 0;
}

/* shuffle_order for the generator in the state row `state` (see load_state),
 * which is advanced in place. */
int64_t draw_order(int64_t n, uint64_t *state, int64_t *order)
{
    struct pcg64 g;
    load_state(state, &g);
    int64_t status = shuffle_order(n, &g, order);
    store_state(&g, state);
    return status;
}

/* One sweep; move_pass without its allocation. link (n) must be all zero on
 * entry and is left so on a normal return; touched (n + 1) is scratch. */
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
            /* a first touch is kept without a branch, as in knn_edges; the
             * spare slot takes the write when all n are touched */
            touched[n_touched] = cj;
            n_touched += link[cj] == 0.0;
            link[cj] += data[p];
            if (n_touched > n)  /* a community touched anew after its sum hit 0 */
                goto done;
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
    double *link = malloc(rows * sizeof(double) + (rows + 1) * sizeof(int64_t));
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

/* Scratch of one run_restarts call, sized for the original graph: every
 * level graph has at most its n nodes and nnz entries. Two level graphs:
 * each aggregation reads one and writes the other. */
struct restart_work {
    int64_t *comm, *comm_size, *empty_stack, *order, *touched, *dense, *iwork;
    double *comm_tot, *link, *dwork;
    int64_t *lvl_indptr[2], *lvl_indices[2];
    double *lvl_data[2], *lvl_deg[2];
    struct pcg64 *rng;
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
        if (shuffle_order(size, w->rng, w->order) < 0)
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

/* _maximize_once: one restart, drawing from w->rng and counting into
 * w->counts; labels (n) receives the partition. Returns 0 or an error. */
static int64_t maximize_once(
    struct restart_work *w,
    int64_t n,
    int64_t nviews,
    int64_t nnz,
    const int64_t *indptr,
    const int64_t *indices,
    const double *data,
    const double *deg,
    const double *alpha,
    int64_t max_levels,
    int64_t *labels)
{
    int64_t *counts = w->counts;
    int64_t *assignment = labels;  /* original node -> community */
    for (int64_t i = 0; i < n; i++)
        assignment[i] = i;
    for (int64_t round = 0; n > 0 && round < max_levels; round++) {
        /* refinement: single-node moves on the original graph, starting from
         * the current assignment (the identity partition on the first round) */
        for (int64_t i = 0; i < n; i++)
            w->comm[i] = assignment[i];
        int64_t moved = sweep_to_fixpoint(w, n, nviews, nnz, indptr, indices, data, deg, alpha);
        if (moved <= 0)
            return moved;
        /* multi-level coarsening until moves dry up at every scale; each
         * aggregation also renumbers the communities it was given densely */
        int64_t cur = 0, agg_nnz;
        int64_t k = aggregate_level(n, nviews, nnz, indptr, indices, data, deg, w->comm,
                                    assignment, w->lvl_indptr[cur], w->lvl_indices[cur],
                                    w->lvl_data[cur], w->lvl_deg[cur], &agg_nnz, w->iwork,
                                    w->dwork);
        if (k < 0)
            return k;
        counts[2] += 1;
        int64_t size = n;
        for (int64_t level = 0; level < max_levels; level++) {
            if (k == size)
                break;
            size = k;
            for (int64_t c = 0; c < k; c++)
                w->comm[c] = c;
            moved = sweep_to_fixpoint(w, size, nviews, agg_nnz, w->lvl_indptr[cur],
                                      w->lvl_indices[cur], w->lvl_data[cur], w->lvl_deg[cur],
                                      alpha);
            if (moved < 0)
                return moved;
            if (!moved)
                break;
            int64_t next = 1 - cur;
            k = aggregate_level(size, nviews, agg_nnz, w->lvl_indptr[cur], w->lvl_indices[cur],
                                w->lvl_data[cur], w->lvl_deg[cur], w->comm, w->dense,
                                w->lvl_indptr[next], w->lvl_indices[next], w->lvl_data[next],
                                w->lvl_deg[next], &agg_nnz, w->iwork, w->dwork);
            if (k < 0)
                return k;
            counts[2] += 1;
            cur = next;
            for (int64_t i = 0; i < n; i++)
                assignment[i] = w->dense[assignment[i]];
        }
    }
    return 0;
}

/* nrestarts restarts on the graph of n nodes (indptr, indices, data; nnz
 * entries) with degrees deg (n, nviews) and null-model coefficients alpha
 * (nviews). Restart r draws its sweep orders from the PCG64 in state row r
 * of states (nrestarts, STATE_SLOTS; see load_state) and leaves that row in
 * the generator's final state. Row r of labels (nrestarts, n) receives its
 * partition, dense in order of first appearance, and row r of counts
 * (nrestarts, 3) its sweeps, moves and levels aggregated. Returns 0, or
 * MOVE_PASS_BAD_INDEX or MOVE_PASS_NO_MEMORY as move_pass does; an error
 * ends the call at the restart that met it.
 */
int64_t run_restarts(
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
    int64_t nrestarts,
    uint64_t *states,
    int64_t *labels,
    int64_t *counts)
{
    int64_t status = 0;
    size_t rows = n > 0 ? (size_t)n : 1, entries = nnz > 0 ? (size_t)nnz : 1;
    size_t cells = rows * (nviews > 0 ? (size_t)nviews : 1);
    double *block = malloc((3 * rows + 3 * cells + 2 * entries) * sizeof(double)
                           + (13 * rows + 3 + 2 * entries) * sizeof(int64_t));
    if (block == NULL)
        return MOVE_PASS_NO_MEMORY;
    struct pcg64 rng;
    struct restart_work w = {.rng = &rng, .eps = eps};
    double *cursor = block;
    w.link = take(&cursor, rows);  /* link and dwork start at zero; each */
    w.dwork = take(&cursor, 2 * rows);  /* restart leaves them so */
    memset(block, 0, 3 * rows * sizeof(double));
    w.comm_tot = take(&cursor, cells);
    for (int b = 0; b < 2; b++) {
        w.lvl_data[b] = take(&cursor, entries);
        w.lvl_deg[b] = take(&cursor, cells);
    }
    w.comm = take(&cursor, rows);
    w.comm_size = take(&cursor, rows);
    w.empty_stack = take(&cursor, rows);
    w.order = take(&cursor, rows);
    w.touched = take(&cursor, rows + 1);
    w.dense = take(&cursor, rows);
    w.iwork = take(&cursor, 5 * rows);
    for (int b = 0; b < 2; b++) {
        w.lvl_indptr[b] = take(&cursor, rows + 1);
        w.lvl_indices[b] = take(&cursor, entries);
    }

    for (int64_t r = 0; r < nrestarts && status == 0; r++) {
        w.counts = counts + 3 * r;
        w.counts[0] = w.counts[1] = w.counts[2] = 0;
        load_state(states + STATE_SLOTS * r, &rng);
        status = maximize_once(&w, n, nviews, nnz, indptr, indices, data, deg, alpha,
                               max_levels, labels + n * r);
        store_state(&rng, states + STATE_SLOTS * r);
    }
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

/* The sum over views of coeffs[v] times view v's symmetric adjacency, as
 * CSR arrays: indptr (n + 1), and indices and data, whose entry count is
 * returned. indices and data must hold twice the edges of the views with a
 * non-zero coefficient; they serve as scratch before the result is written.
 *
 * View v's edges are entries offsets[v]..offsets[v + 1] of edge_u, edge_v
 * and edge_w (nedges each); each edge u < v stands for the entries (u, v)
 * and (v, u), weighted edge_w * coeffs[v]. Views whose coefficient is 0 are
 * skipped. The entries are counting-sorted by column (as edge ids, the only
 * scratch of the size of the input) and then stably by row, so entries in
 * (row, column) order and each pair's views in view order, whatever the
 * order of the input. Each pair's sum starts from 0.0 and adds its views'
 * products in view order, and exact zeros are dropped: bit for bit what the
 * reference gets.
 *
 * Returns MOVE_PASS_BAD_INDEX when an offset falls or the offsets do not run
 * from 0 to nedges, an edge has u >= v or an id outside [0, n), or a pair is
 * repeated within one view that is added; or MOVE_PASS_NO_MEMORY if scratch
 * allocation fails.
 */
int64_t combined_graph(
    int64_t n,
    int64_t nviews,
    int64_t nedges,
    const int64_t *offsets,
    const int64_t *edge_u,
    const int64_t *edge_v,
    const double *edge_w,
    const double *coeffs,
    int64_t *indptr,
    int64_t *indices,
    double *data)
{
    if (n < 0 || nviews < 0 || offsets[0] != 0 || offsets[nviews] != nedges)
        return MOVE_PASS_BAD_INDEX;
    int64_t m = 0;
    for (int64_t v = 0; v < nviews; v++) {
        if (offsets[v] > offsets[v + 1])
            return MOVE_PASS_BAD_INDEX;
        if (coeffs[v] != 0.0)
            m += 2 * (offsets[v + 1] - offsets[v]);
    }
    for (int64_t e = 0; e < nedges; e++)
        if (edge_u[e] < 0 || edge_u[e] >= edge_v[e] || edge_v[e] >= n)
            return MOVE_PASS_BAD_INDEX;

    size_t entries = m > 0 ? (size_t)m : 1, ends = (size_t)n + 1;
    int64_t *src = malloc((entries + 3 * ends) * sizeof(int64_t));
    if (src == NULL)
        return MOVE_PASS_NO_MEMORY;
    int64_t *start = src + entries;  /* of each column's entries, and each row's */
    int64_t *fill = start + ends;
    int64_t *last_view = fill + ends;  /* of each row's latest entry */

    /* an edge gives one entry to each endpoint's column and row alike */
    for (int64_t i = 0; i <= n; i++)
        start[i] = 0;
    for (int64_t v = 0; v < nviews; v++) {
        if (coeffs[v] == 0.0)
            continue;
        for (int64_t e = offsets[v]; e < offsets[v + 1]; e++) {
            start[edge_u[e] + 1]++;
            start[edge_v[e] + 1]++;
        }
    }
    for (int64_t i = 0; i < n; i++)
        start[i + 1] += start[i];
    /* the edge of each entry by column, in input order, so each column's
     * edges ascend and their views with them */
    memcpy(fill, start, ends * sizeof(int64_t));
    for (int64_t v = 0; v < nviews; v++) {
        if (coeffs[v] == 0.0)
            continue;
        for (int64_t e = offsets[v]; e < offsets[v + 1]; e++) {
            src[fill[edge_v[e]]++] = e;
            src[fill[edge_u[e]]++] = e;
        }
    }
    /* stably by row into indices and data: each row's entries by column,
     * each pair's in view order, so a pair repeated within one view lands
     * next to itself */
    memcpy(fill, start, ends * sizeof(int64_t));
    for (int64_t col = 0; col < n; col++) {
        int64_t v = 0;
        for (int64_t q = start[col]; q < start[col + 1]; q++) {
            int64_t e = src[q];
            while (e >= offsets[v + 1])
                v++;
            int64_t row = edge_u[e] + edge_v[e] - col, t = fill[row]++;
            if (t > start[row] && indices[t - 1] == col && last_view[row] == v) {
                free(src);
                return MOVE_PASS_BAD_INDEX;
            }
            indices[t] = col;
            data[t] = edge_w[e] * coeffs[v];
            last_view[row] = v;
        }
    }
    /* each pair's sum, written in place behind the entries still to read */
    int64_t out = 0;
    indptr[0] = 0;
    for (int64_t row = 0; row < n; row++) {
        for (int64_t t = start[row]; t < start[row + 1];) {
            int64_t col = indices[t];
            double acc = 0.0;
            for (; t < start[row + 1] && indices[t] == col; t++)
                acc = acc + data[t];
            if (acc != 0.0) {
                indices[out] = col;
                data[out++] = acc;
            }
        }
        indptr[row + 1] = out;
    }
    free(src);
    return out;
}

/* True if the offsets at (count + 1 entries) rise from 0 to at most length. */
static int pieces_ok(int64_t count, const int64_t *at, int64_t length)
{
    if (count < 0 || at[0] != 0 || at[count] > length)
        return 0;
    for (int64_t t = 0; t < count; t++)
        if (at[t] > at[t + 1])
            return 0;
    return 1;
}

/* The text of a view of n rows over ncols columns (indptr, indices; nnz
 * entries, each with a value code in codes) as `row<TAB>col<TAB>value` lines,
 * written to out (size bytes).
 *
 * Each table holds pieces of text: piece t of (text, at) is the bytes
 * text[at[t]..at[t + 1]). Row i's piece is its name and a TAB, column c's its
 * name and a TAB, and value v's its repr and a newline. Entry p of row i is
 * written as row piece i, column piece indices[p] and value piece codes[p],
 * entries in stored order.
 *
 * Every index and offset is checked, and the pieces must fill exactly size
 * bytes, before the first byte is written. Returns size, or
 * MOVE_PASS_BAD_INDEX with out untouched.
 */
int64_t format_triplets(
    int64_t n,
    int64_t ncols,
    int64_t nvalues,
    int64_t nnz,
    const int64_t *indptr,
    const int64_t *indices,
    const int64_t *codes,
    const char *row_text,
    const int64_t *row_at,
    int64_t row_length,
    const char *col_text,
    const int64_t *col_at,
    int64_t col_length,
    const char *value_text,
    const int64_t *value_at,
    int64_t value_length,
    char *out,
    int64_t size)
{
    if (n < 0 || nnz < 0 || indptr[0] != 0 || indptr[n] != nnz
        || !pieces_ok(n, row_at, row_length) || !pieces_ok(ncols, col_at, col_length)
        || !pieces_ok(nvalues, value_at, value_length))
        return MOVE_PASS_BAD_INDEX;
    int64_t needed = 0;
    for (int64_t i = 0; i < n; i++) {
        if (indptr[i] > indptr[i + 1])
            return MOVE_PASS_BAD_INDEX;
        needed += (indptr[i + 1] - indptr[i]) * (row_at[i + 1] - row_at[i]);
    }
    for (int64_t p = 0; p < nnz; p++) {
        int64_t c = indices[p], v = codes[p];
        if (c < 0 || c >= ncols || v < 0 || v >= nvalues)
            return MOVE_PASS_BAD_INDEX;
        needed += (col_at[c + 1] - col_at[c]) + (value_at[v + 1] - value_at[v]);
    }
    if (needed != size)
        return MOVE_PASS_BAD_INDEX;

    char *cursor = out;
    for (int64_t i = 0; i < n; i++) {
        const char *row = row_text + row_at[i];
        size_t row_bytes = (size_t)(row_at[i + 1] - row_at[i]);
        for (int64_t p = indptr[i]; p < indptr[i + 1]; p++) {
            int64_t c = indices[p], v = codes[p];
            size_t col_bytes = (size_t)(col_at[c + 1] - col_at[c]);
            size_t value_bytes = (size_t)(value_at[v + 1] - value_at[v]);
            memcpy(cursor, row, row_bytes);
            cursor += row_bytes;
            memcpy(cursor, col_text + col_at[c], col_bytes);
            cursor += col_bytes;
            memcpy(cursor, value_text + value_at[v], value_bytes);
            cursor += value_bytes;
        }
    }
    return size;
}

/* ASCII classes of Python's str patterns: \s is bytes 9-13 and 28-32 (what
 * str.isspace accepts), \w is [A-Za-z0-9_]; NUL and 0x7f are neither. */
static int is_space(unsigned char c)
{
    return (c >= 9 && c <= 13) || (c >= 28 && c <= 32);
}

static int is_alnum(unsigned char c)
{
    return (unsigned char)((c | 0x20) - 'a') < 26 || (unsigned char)(c - '0') < 10;
}

static int is_word(unsigned char c)
{
    return is_alnum(c) || c == '_';
}

/* The passes of mvmc.ingest.preprocess_text, in its order. */
enum markup { URL, HASHTAG, MENTION, RETWEET };

/* The length of the match of pass `kind` at s[r] (of n bytes), or 0; the
 * byte before r, if any, is the pass's input.
 *   URL      (?:https?://|www\.)\S+
 *   HASHTAG  #\S+
 *   MENTION  @\w+
 *   RETWEET  \bRT\b
 */
static int64_t match_at(enum markup kind, const char *s, int64_t r, int64_t n)
{
    int64_t m;
    switch (kind) {
    case URL:
        if (n - r >= 8 && memcmp(s + r, "https://", 8) == 0)
            m = 8;
        else if (n - r >= 7 && memcmp(s + r, "http://", 7) == 0)
            m = 7;
        else if (n - r >= 4 && memcmp(s + r, "www.", 4) == 0)
            m = 4;
        else
            return 0;
        if (r + m == n || is_space((unsigned char)s[r + m]))
            return 0;
        while (r + m < n && !is_space((unsigned char)s[r + m]))
            m++;
        return m;
    case HASHTAG:
        if (r + 1 == n || is_space((unsigned char)s[r + 1]))
            return 0;
        for (m = 2; r + m < n && !is_space((unsigned char)s[r + m]); m++)
            ;
        return m;
    case MENTION:
        if (r + 1 == n || !is_word((unsigned char)s[r + 1]))
            return 0;
        for (m = 2; r + m < n && is_word((unsigned char)s[r + m]); m++)
            ;
        return m;
    case RETWEET:
        if (r + 1 == n || s[r + 1] != 'T' || (r > 0 && is_word((unsigned char)s[r - 1]))
            || (r + 2 < n && is_word((unsigned char)s[r + 2])))
            return 0;
        return 2;
    }
    return 0;
}

/* The first position from r on where a match of pass `kind` can start: its
 * marker, h or w, #, @ or R; n if there is none. */
static int64_t next_marker(enum markup kind, const char *s, int64_t r, int64_t n)
{
    if (kind == URL) {
        /* every URL match holds a colon or a dot */
        if (r == 0 && !memchr(s, ':', (size_t)n) && !memchr(s, '.', (size_t)n))
            return n;
        while (r < n && s[r] != 'h' && s[r] != 'w')
            r++;
        return r;
    }
    const char *hit = memchr(s + r, "h#@R"[kind], (size_t)(n - r));
    return hit ? hit - s : n;
}

/* One pass of re.sub(pattern, " ", s) over s (n bytes), in place: matches are
 * found left to right in the pass's input, each is replaced by one space and
 * the scan resumes after it. A match is never empty, so the output stays
 * behind the input, and the byte before the input position is still the
 * input's. The bytes between markers are moved as they are, so a pass whose
 * marker is absent leaves s untouched. Returns the new length. */
static int64_t strip_markup(enum markup kind, char *s, int64_t n)
{
    /* every URL match holds a colon or a dot */
    if (kind == URL && !memchr(s, ':', (size_t)n) && !memchr(s, '.', (size_t)n))
        return n;
    int64_t r = 0, w = 0;
    for (;;) {
        int64_t next = next_marker(kind, s, r, n);
        if (w < r)
            memmove(s + w, s + r, (size_t)(next - r));
        w += next - r;
        r = next;
        if (r == n)
            return w;
        int64_t m = match_at(kind, s, r, n);
        if (m > 0) {
            s[w++] = ' ';
            r += m;
        } else {
            s[w++] = s[r++];
        }
    }
}

/* A batch's name table: names[name_at[t]..name_at[t + 1] - 1] is name t,
 * followed by a space; slots is an open-addressing table (cap slots, a power
 * of two) of the names' ids + 1 under the hash's high 32 bits, 0 when empty.
 * The table sits in one scratch block behind `work` bytes of text scratch. */
struct name_table {
    char *block;
    size_t work;
    uint64_t *slots;
    int64_t cap, count;
    char *names;
    int64_t *name_at;
};

#define FNV_OFFSET 0xcbf29ce484222325ULL  /* 64-bit FNV-1a */
#define FNV_PRIME 0x100000001b3ULL

static uint64_t name_hash(const char *s, int64_t len)
{
    uint64_t h = FNV_OFFSET;
    for (int64_t i = 0; i < len; i++)
        h = (h ^ (unsigned char)s[i]) * FNV_PRIME;
    return h;
}

/* The slot that holds the name s (len bytes) of hash h, or the empty slot
 * where it belongs. */
static uint64_t *find_slot(const struct name_table *t, const char *s, int64_t len, uint64_t h)
{
    uint64_t mask = (uint64_t)t->cap - 1, tag = h >> 32 << 32;
    for (uint64_t i = h & mask;; i = (i + 1) & mask) {
        uint64_t slot = t->slots[i];
        if (slot == 0)
            return &t->slots[i];
        int64_t id = (int64_t)(slot & 0xffffffffULL) - 1;
        if ((slot & ~0xffffffffULL) == tag && t->name_at[id + 1] - 1 - t->name_at[id] == len
            && memcmp(t->names + t->name_at[id], s, (size_t)len) == 0)
            return &t->slots[i];
    }
}

/* Grow the block to hold cap slots (the text scratch keeps its bytes) and
 * put every name back. Returns 0, or MOVE_PASS_NO_MEMORY with the old block
 * still in place. */
static int64_t resize_table(struct name_table *t, int64_t cap)
{
    char *block = realloc(t->block, t->work + (size_t)cap * sizeof(uint64_t));
    if (block == NULL)
        return MOVE_PASS_NO_MEMORY;
    t->block = block;
    t->slots = (uint64_t *)(block + t->work);
    t->cap = cap;
    memset(t->slots, 0, (size_t)cap * sizeof(uint64_t));
    for (int64_t id = 0; id < t->count; id++) {
        const char *s = t->names + t->name_at[id];
        int64_t len = t->name_at[id + 1] - 1 - t->name_at[id];
        uint64_t h = name_hash(s, len);
        *find_slot(t, s, len, h) = (h >> 32 << 32) | (uint64_t)(id + 1);
    }
    return 0;
}

/* The code of the name s (len bytes, name_hash h), a new one if it is new: it is
 * then copied to the names, and the table doubles once it is half full. s is
 * read before the table grows, so it may point into the text scratch, which
 * then moves. Returns the code, or MOVE_PASS_NO_MEMORY. */
static int64_t code_name(struct name_table *t, const char *s, int64_t len, uint64_t h)
{
    uint64_t *slot = find_slot(t, s, len, h);
    if (*slot != 0)
        return (int64_t)(*slot & 0xffffffffULL) - 1;
    int64_t id = t->count++;
    char *name = t->names + t->name_at[id];
    memcpy(name, s, (size_t)len);
    name[len] = ' ';
    t->name_at[id + 1] = t->name_at[id] + len + 1;
    *slot = (h >> 32 << 32) | (uint64_t)(id + 1);
    if (2 * t->count > t->cap && resize_table(t, 2 * t->cap) != 0)
        return MOVE_PASS_NO_MEMORY;
    return id;
}

/* room for 4,096 names before the first growth; a batch of 1,024 posts from
 * bench/corpus.py's generator holds about 2,200 */
#define FIRST_SLOTS 8192

/* The tokens of a batch of ntexts texts, coded by first appearance.
 *
 * Text i is text[at[i]..at[i + 1]). When split[i] is 0 it is ASCII and gets
 * mvmc.ingest.preprocess_text: the URL, hashtag, mention and retweet passes
 * in that order (see match_at and strip_markup), then the runs of
 * [A-Za-z0-9], lowercased. When split[i] is not 0 it already holds its
 * tokens, separated by spaces, and is only split on spaces.
 *
 * Outputs: codes receives every token's code, text after text, a code being
 * the token's rank among the batch's distinct tokens by first appearance;
 * counts (ntexts) each text's number of tokens; names the distinct tokens,
 * each followed by a space, token t starting at byte name_at[t], and
 * name_at[*n_names] is the names' length. A text of L bytes holds at most
 * (L + 1) / 2 tokens of at most L + 1 bytes with their spaces, so codes and
 * name_at - 1 need (length + ntexts) / 2 slots and names length + ntexts
 * bytes. 32-bit codes limit a batch to 2**31 - 1 tokens.
 *
 * Returns the number of tokens, or MOVE_PASS_BAD_INDEX when nflags is not
 * ntexts, the offsets fall or do not run from 0 to length, or the batch could
 * hold too many tokens, with the outputs untouched; or MOVE_PASS_NO_MEMORY
 * if scratch allocation fails.
 */
int64_t code_texts(
    int64_t ntexts,
    const char *text,
    int64_t length,
    const int64_t *at,
    const uint8_t *split,
    int64_t nflags,
    int32_t *codes,
    int32_t *counts,
    char *names,
    int64_t *name_at,
    int64_t *n_names)
{
    if (ntexts < 0 || nflags != ntexts || at[0] != 0 || at[ntexts] != length
        || (length + ntexts) / 2 > INT32_MAX)
        return MOVE_PASS_BAD_INDEX;
    int64_t longest = 0;
    for (int64_t i = 0; i < ntexts; i++) {
        if (at[i] > at[i + 1])
            return MOVE_PASS_BAD_INDEX;
        if (split[i] == 0 && at[i + 1] - at[i] > longest)
            longest = at[i + 1] - at[i];
    }
    struct name_table t = {NULL, ((size_t)longest + 7) / 8 * 8, NULL, 0, 0, names, name_at};
    name_at[0] = 0;
    if (resize_table(&t, FIRST_SLOTS) != 0)
        return MOVE_PASS_NO_MEMORY;

    int64_t total = 0;
    for (int64_t i = 0; i < ntexts; i++) {
        int64_t n = at[i + 1] - at[i], before = total;
        if (split[i] == 0) {
            memcpy(t.block, text + at[i], (size_t)n);
            for (enum markup kind = URL; kind <= RETWEET; kind++)
                n = strip_markup(kind, t.block, n);
        }
        for (int64_t r = 0; r < n;) {
            int64_t start = r;
            uint64_t h = FNV_OFFSET;
            const char *s;
            if (split[i]) {
                s = text + at[i];
                for (; r < n && s[r] != ' '; r++)
                    h = (h ^ (unsigned char)s[r]) * FNV_PRIME;
            } else {
                char *work = t.block;  /* it moves when the table grows */
                for (; r < n && is_alnum((unsigned char)work[r]); r++) {
                    if (work[r] >= 'A')
                        work[r] |= 0x20;  /* a letter, lowercased */
                    h = (h ^ (unsigned char)work[r]) * FNV_PRIME;
                }
                s = work;
            }
            if (r == start) {
                r++;  /* a separator */
                continue;
            }
            int64_t code = code_name(&t, s + start, r - start, h);
            if (code < 0) {
                free(t.block);
                return code;
            }
            codes[total++] = (int32_t)code;
        }
        counts[i] = (int32_t)(total - before);
    }
    free(t.block);
    *n_names = t.count;
    return total;
}
