/* Compiled kernels of hypiss: the march behind hypiss.solver.run and the
 * row formatter behind the trace and trajectory writers of hypiss.reports.
 *
 * hypiss_march advances the component-major state W, shape (2, J+2) with
 * ghost columns 0 and J+1, of a 2x2 system with one positive and one
 * negative speed (k = 2, m = 1, the shape of every shipped scenario) from
 * level n0 to level n1 with one step size; every other shape marches in
 * the NumPy kernel only.  Cell j's coefficients r_lam and pi_cols are at
 * column cs * j: cs = 1, or cs = 0 when solver.py found them the same in
 * every cell.  The compiler inlines step_2x2 at both of its calls, one per
 * stride, so the constant case streams only the state and the weights; CI
 * checks that the object has no step_2x2 symbol.  Each step does the
 * operations of the NumPy kernel in solver.py in the same order, so the
 * state is bit-identical:
 *
 *   transport   tilde = inner - (upwind difference) * r_lam
 *   source      inner = tilde + (sum_c Pi[:, c] tilde[c]) * (-step)
 *   functional  L = dx * sum of (p * inner) * inner, summed the way
 *               numpy sums a contiguous array (pairwise, 8 accumulators)
 *   boundary    ghosts = K w_in + M * b[n+1]
 *
 * lyap[n+1] receives L.  The return value is the first level whose L is
 * not finite, or -1; the state is left at that level.  Compile without
 * -ffast-math and with -ffp-contract=off, so that no reassociation or
 * fused multiply-add changes the last bits.
 *
 * hypiss_csv_rows writes CSV rows with every double printed as Python's
 * repr prints it: the shortest decimal that rounds back to it, found with
 * Schubfach (R. Giulietti, "The Schubfach way to render doubles", 2020),
 * in repr's layout.  Its Python twin, _python_rows in reports.py, formats
 * the rows when this library cannot be built, with the same bytes.
 */

#include <math.h>
#include <stddef.h>
#include <stdint.h>
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
                     double *restrict old, double *restrict prod, double neg_step, long cs)
{
    double *restrict pos = W + 1, *restrict neg = W + (J + 2) + 1;
    const long nc = cs ? J : 1;
    const double *r_pos = r_lam, *r_neg = r_lam + nc;
    const double *pi00 = pi_cols, *pi10 = pi_cols + nc;        /* column 0 */
    const double *pi01 = pi_cols + 2 * nc, *pi11 = pi_cols + 3 * nc;
    memcpy(old, W, (size_t)(J + 1) * sizeof(double));
    for (long j = 0; j < J; j++) {
        double t0 = old[j + 1] - (old[j + 1] - old[j]) * r_pos[cs * j];
        double t1 = neg[j] - (neg[j + 1] - neg[j]) * r_neg[cs * j];
        double s0 = pi00[cs * j] * t0;
        s0 += pi01[cs * j] * t1;
        double s1 = pi10[cs * j] * t0;
        s1 += pi11[cs * j] * t1;
        double w0 = t0 + s0 * neg_step, w1 = t1 + s1 * neg_step;
        pos[j] = w0;
        neg[j] = w1;
        prod[j] = (p[j] * w0) * w0;
        prod[J + j] = (p[J + j] * w1) * w1;
    }
}

/* p, prod: (2, J); old: J + 1 doubles of scratch; r_lam: (2, C) and
 * pi_cols: (2, 2, C) with pi_cols[c][a][j] = Pi_j[a][c], where C = J for
 * cs = 1 and C = 1 for cs = 0; K: (2, 2); M: (2); b: (levels, 2). */
long hypiss_march(long J, double *W, const double *r_lam, const double *pi_cols,
                  const double *p, const double *K, const double *M,
                  const double *b, double *lyap, double *old, double *prod,
                  double step, double dx, long n0, long n1, long cs)
{
    const ptrdiff_t w = J + 2;
    for (long n = n0; n < n1; n++) {
        if (cs)
            step_2x2(J, W, r_lam, pi_cols, p, old, prod, -step, 1);
        else
            step_2x2(J, W, r_lam, pi_cols, p, old, prod, -step, 0);
        double L = dx * pairwise_sum(prod, 2 * J);
        if (!isfinite(L))
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

/* Schubfach for doubles: v = c 2^q with q >= Q_MIN, and the decimal exponent
 * k of the candidates lies in [K_MIN, 292].  g is the caller's table of
 * g = floor(10^-k 2^-r) + 1, r = flog2pow10(-k) - 125, as the pairs
 * (g >> 63, g mod 2^63) for k = K_MIN .. 292. */
#define Q_MIN (-1074)
#define K_MIN (-324)
#define C_MIN ((uint64_t)1 << 52)
#define MASK63 (((uint64_t)1 << 63) - 1)

/* floor(x / 2^s) for |x| < 2^(s + 11): the bias keeps the shifted value
 * non-negative, where >> is a floor in every C implementation */
static int floor_shift(int64_t x, int s)
{
    return (int)((x + ((int64_t)2048 << s)) >> s) - 2048;
}

/* floor(e log10 2), floor(e log10 2 + log10 3/4), floor(e log2 10) */
static int flog10pow2(int e) { return floor_shift(e * INT64_C(661971961083), 41); }
static int flog10_34pow2(int e) { return floor_shift(e * INT64_C(661971961083) - INT64_C(274743187321), 41); }
static int flog2pow10(int e) { return floor_shift(e * INT64_C(913124641741), 38); }

/* high 64 bits of the 128-bit product, from 32-bit halves */
static uint64_t mul_hi(uint64_t a, uint64_t b)
{
    uint64_t a0 = a & 0xffffffffu, a1 = a >> 32, b0 = b & 0xffffffffu, b1 = b >> 32;
    uint64_t p01 = a0 * b1, p10 = a1 * b0;
    uint64_t mid = ((a0 * b0) >> 32) + (p01 & 0xffffffffu) + (p10 & 0xffffffffu);
    return a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32);
}

/* cp g 2^-127 rounded to odd */
static uint64_t rop(uint64_t g1, uint64_t g0, uint64_t cp)
{
    uint64_t z = ((g1 * cp) >> 1) + mul_hi(g0, cp);
    return (mul_hi(g1, cp) + (z >> 63)) | (((z & MASK63) + MASK63) >> 63);
}

/* The shortest decimal f 10^e that rounds to v = c 2^q 10^dk, the closest
 * to v among those, and the even one of a tie. */
static uint64_t shortest(const uint64_t *g, int q, uint64_t c, int dk, int *e)
{
    const uint64_t out = c & 1, cb = c << 2, cbr = cb + 2;
    uint64_t cbl;
    int k;
    if (c != C_MIN || q == Q_MIN) {        /* regular spacing */
        cbl = cb - 2;
        k = flog10pow2(q);
    } else {                                /* the lower neighbour is closer */
        cbl = cb - 1;
        k = flog10_34pow2(q);
    }
    const int h = q + flog2pow10(-k) + 2;
    const uint64_t g1 = g[2 * (k - K_MIN)], g0 = g[2 * (k - K_MIN) + 1];
    const uint64_t vb = rop(g1, g0, cb << h), vbl = rop(g1, g0, cbl << h),
                   vbr = rop(g1, g0, cbr << h);
    const uint64_t s = vb >> 2, t = s + 1;
    *e = k + dk;
    if (s >= 10) {                          /* one digit shorter: s' 10 or t' 10 */
        const uint64_t sp10 = s / 10 * 10, tp10 = sp10 + 10;
        const int upin = vbl + out <= sp10 << 2, wpin = (tp10 << 2) + out <= vbr;
        if (upin != wpin)
            return upin ? sp10 : tp10;
    }
    const int uin = vbl + out <= s << 2, win = (t << 2) + out <= vbr;
    if (uin != win)
        return uin ? s : t;
    return vb < (s + t) << 1 || (vb == (s + t) << 1 && (s & 1) == 0) ? s : t;
}

static char *put(char *p, const char *s, int n)
{
    memcpy(p, s, (size_t)n);
    return p + n;
}

static char *zeros(char *p, int n)
{
    memset(p, '0', (size_t)n);
    return p + n;
}

/* repr(v) at p; returns the end.  At most 24 characters. */
static char *format_double(char *p, double v, const uint64_t *g)
{
    uint64_t bits, f;
    int e;
    memcpy(&bits, &v, sizeof bits);
    const uint64_t frac = bits & (C_MIN - 1);
    const int bq = (int)(bits >> 52) & 0x7ff;
    if (bq == 0x7ff && frac != 0)
        return put(p, "nan", 3);
    if (bits >> 63)
        *p++ = '-';
    if (bq == 0x7ff)
        return put(p, "inf", 3);
    if (bq == 0 && frac == 0)
        return put(p, "0.0", 3);
    if (bq != 0)
        f = shortest(g, bq - 1075, C_MIN | frac, 0, &e);
    else if (frac < 3)                      /* too few digits: scale by 10 */
        f = shortest(g, Q_MIN, 10 * frac, -1, &e);
    else
        f = shortest(g, Q_MIN, frac, 0, &e);
    for (; f % 10 == 0; e++)
        f /= 10;
    char digits[17];
    int n = 0;
    for (; f != 0; f /= 10)
        digits[16 - n++] = (char)('0' + f % 10);
    const char *d = digits + 17 - n;
    const int decpt = n + e;                /* v = 0.d 10^decpt */
    if (decpt > -4 && decpt <= 0)           /* 0.000ddd */
        return put(zeros(put(p, "0.", 2), -decpt), d, n);
    if (decpt > 0 && decpt < n)             /* dd.ddd */
        return put(put(put(p, d, decpt), ".", 1), d + decpt, n - decpt);
    if (decpt >= n && decpt <= 16)          /* ddd00.0 */
        return put(zeros(put(p, d, n), decpt - n), ".0", 2);
    p = n > 1 ? put(put(put(p, d, 1), ".", 1), d + 1, n - 1) : put(p, d, 1);
    int x = decpt - 1;                      /* d.ddde+XX */
    *p++ = 'e';
    *p++ = x < 0 ? '-' : '+';
    x = x < 0 ? -x : x;
    if (x >= 100)
        *p++ = (char)('0' + x / 100);
    *p++ = (char)('0' + x / 10 % 10);
    *p++ = (char)('0' + x % 10);
    return p;
}

/* g: the table above, (617, 2).  Writes rows first .. first+count-1 into
 * out, which must hold count times (prefix_len + 21 + 25 ncols) bytes, and
 * returns the bytes written.  Row r is the prefix, r, then for each column
 * c a comma and repr of cols[c][r * strides[c]], or nothing where cols[c]
 * is NULL, then a newline. */
long hypiss_csv_rows(const uint64_t *g, char *out, const char *prefix, long prefix_len,
                     long first, long count, long ncols, const double *const *cols,
                     const long *strides)
{
    char *p = out;
    for (long r = first; r < first + count; r++) {
        memcpy(p, prefix, (size_t)prefix_len);
        p += prefix_len;
        char digits[20];
        int n = 0;
        long i = r;
        do
            digits[n++] = (char)('0' + i % 10);
        while ((i /= 10) != 0);
        while (n > 0)
            *p++ = digits[--n];
        for (long c = 0; c < ncols; c++) {
            *p++ = ',';
            if (cols[c] != NULL)
                p = format_double(p, cols[c][r * strides[c]], g);
        }
        *p++ = '\n';
    }
    return (long)(p - out);
}
