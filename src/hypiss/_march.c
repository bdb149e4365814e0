/* Compiled step kernel of hypiss.solver.run.
 *
 * hypiss_march advances the component-major state W, shape (2, J+2) with
 * ghost columns 0 and J+1, of a 2x2 system with one positive and one
 * negative speed (k = 2, m = 1, the shape of every shipped scenario) from
 * level n0 to level n1 with one step size; every other shape marches in
 * the NumPy kernel only.  Each step does the operations of the NumPy
 * kernel in solver.py in the same order, so the state is bit-identical:
 *
 *   transport   tilde = inner - (upwind difference) * r_lam
 *   source      inner = tilde + (sum_c Pi[:, c] tilde[c]) * (-step)
 *   functional  L = dx * sum of (p * inner) * inner, summed the way
 *               numpy sums a contiguous array (pairwise, 8 accumulators)
 *   boundary    ghosts = K w_in + M * b[n+1]
 *
 * lyap[n+1] receives L.  The return value is the first level whose
 * interior holds a non-finite value, or -1.  Compile without
 * -ffast-math and with -ffp-contract=off, so that no reassociation or
 * fused multiply-add changes the last bits.
 */

#include <math.h>
#include <stddef.h>
#include <string.h>

/* numpy's pairwise summation of a contiguous float64 array */
static double pairwise_sum(const double *a, ptrdiff_t n)
{
    if (n < 8) {
        double res = -0.0;
        for (ptrdiff_t i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        ptrdiff_t i;
        for (int q = 0; q < 8; q++)
            r[q] = a[q];
        for (i = 8; i < n - (n % 8); i += 8)
            for (int q = 0; q < 8; q++)
                r[q] += a[i + q];
        double res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    ptrdiff_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_sum(a, n2) + pairwise_sum(a + n2, n - n2);
}

/* One step of the transport and source updates in one pass over the
 * cells; prod receives the functional's terms.  The positive row is read
 * from a copy, old, because the pass overwrites the upwind cell it needs;
 * the negative row's upwind cell is still unwritten when it is read. */
static void step_2x2(long J, double *restrict W, const double *restrict r_lam,
                     const double *restrict pi_cols, const double *restrict p,
                     double *restrict old, double *restrict prod, double neg_step)
{
    double *restrict pos = W + 1, *restrict neg = W + (J + 2) + 1;
    const double *r_pos = r_lam, *r_neg = r_lam + J;
    const double *pi00 = pi_cols, *pi10 = pi_cols + J;         /* column 0 */
    const double *pi01 = pi_cols + 2 * J, *pi11 = pi_cols + 3 * J;
    memcpy(old, W, (size_t)(J + 1) * sizeof(double));
    for (long j = 0; j < J; j++) {
        double t0 = old[j + 1] - (old[j + 1] - old[j]) * r_pos[j];
        double t1 = neg[j] - (neg[j + 1] - neg[j]) * r_neg[j];
        double s0 = pi00[j] * t0;
        s0 += pi01[j] * t1;
        double s1 = pi10[j] * t0;
        s1 += pi11[j] * t1;
        double w0 = t0 + s0 * neg_step, w1 = t1 + s1 * neg_step;
        pos[j] = w0;
        neg[j] = w1;
        prod[j] = (p[j] * w0) * w0;
        prod[J + j] = (p[J + j] * w1) * w1;
    }
}

/* r_lam, p, prod: (2, J); old: J + 1 doubles of scratch; pi_cols:
 * (2, 2, J) with pi_cols[c][a][j] = Pi_j[a][c]; K: (2, 2); M: (2);
 * b: (levels, 2). */
long hypiss_march(long J, double *W, const double *r_lam, const double *pi_cols,
                  const double *p, const double *K, const double *M,
                  const double *b, double *lyap, double *old, double *prod,
                  double step, double dx, long n0, long n1)
{
    const ptrdiff_t w = J + 2;
    for (long n = n0; n < n1; n++) {
        step_2x2(J, W, r_lam, pi_cols, p, old, prod, -step);
        double L = dx * pairwise_sum(prod, 2 * J);
        if (!isfinite(L))   /* a non-finite interior makes L non-finite */
            for (long j = 1; j <= J; j++)
                if (!isfinite(W[j]) || !isfinite(W[w + j]))
                    return n + 1;
        /* the feedback reads (W+_{J-1}, W-_0), columns J and 1, and writes
         * the ghosts W+_{-1} and W-_J, columns 0 and J+1 */
        const double w0 = W[J], w1 = W[w + 1], *bn = b + 2 * (n + 1);
        for (long i = 0; i < 2; i++) {
            double g = 0.0;
            g += K[2 * i] * w0;
            g += K[2 * i + 1] * w1;
            W[i == 0 ? 0 : w + J + 1] = g + M[i] * bn[i];
        }
        lyap[n + 1] = L;
    }
    return -1;
}
