/* One sweep of local moves for the multi-view modularity maximizer.
 *
 * A line-for-line port of mvmc._kernels._move_pass, which is the reference:
 * same loop order, same floating-point operations in the same order, so both
 * give bit-identical results when built without floating-point contraction
 * (-ffp-contract=off) or fast-math. Arrays are C-contiguous; deg and comm_tot
 * are row-major (n, nviews). The caller checks shapes and dtypes; this file
 * checks every index it reads from an array before using it.
 *
 * Returns the new n_empty, or MOVE_PASS_BAD_INDEX if an index read from the
 * inputs lies out of range, or MOVE_PASS_NO_MEMORY if scratch allocation
 * fails. *gain_out and *moves_out receive the total gain and move count.
 */
#include <stdint.h>
#include <stdlib.h>

#define MOVE_PASS_BAD_INDEX (-1)
#define MOVE_PASS_NO_MEMORY (-2)

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
