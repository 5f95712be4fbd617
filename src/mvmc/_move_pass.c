/* The two compiled routines of the multi-view modularity maximizer.
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
 * Arrays are C-contiguous; deg, comm_tot and agg_deg are row-major
 * (rows, nviews). The caller checks shapes and dtypes; this file checks every
 * index it reads from an array before using it.
 */
#include <stdint.h>
#include <stdlib.h>

#define MOVE_PASS_BAD_INDEX (-1)
#define MOVE_PASS_NO_MEMORY (-2)

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
    int64_t status = MOVE_PASS_BAD_INDEX;
    double total_gain = 0.0;
    int64_t n_moves = 0;
    double *link = calloc(n > 0 ? (size_t)n : 1, sizeof(double));
    int64_t *touched = malloc((n > 0 ? (size_t)n : 1) * sizeof(int64_t));
    if (link == NULL || touched == NULL) {
        status = MOVE_PASS_NO_MEMORY;
        goto done;
    }
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
    free(link);
    free(touched);
    *gain_out = total_gain;
    *moves_out = n_moves;
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
    int64_t status = MOVE_PASS_BAD_INDEX;
    int64_t k = 0, out = 0;
    size_t cells = size > 0 ? (size_t)size : 1;
    int64_t *label = malloc(cells * sizeof(int64_t));  /* comm id -> dense */
    int64_t *first = malloc(cells * sizeof(int64_t));  /* first member */
    int64_t *member_next = malloc(cells * sizeof(int64_t));
    int64_t *node_next = malloc(cells * sizeof(int64_t));
    int64_t *comm_next = malloc(cells * sizeof(int64_t));
    double *node_sum = calloc(cells, sizeof(double));
    double *comm_sum = calloc(cells, sizeof(double));
    if (label == NULL || first == NULL || member_next == NULL || node_next == NULL
        || comm_next == NULL || node_sum == NULL || comm_sum == NULL) {
        status = MOVE_PASS_NO_MEMORY;
        goto done;
    }
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
    free(label);
    free(first);
    free(member_next);
    free(node_next);
    free(comm_next);
    free(node_sum);
    free(comm_sum);
    *nnz_out = out;
    return status;
}
