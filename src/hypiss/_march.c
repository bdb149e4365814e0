/* Compiled kernels of hypiss: the march behind hypiss.solver.run and the
 * row formatter behind the trace and trajectory writers of hypiss.reports.
 *
 * hypiss_march advances the component-major state W, shape (2, J+2) with
 * ghost columns 0 and J+1, of a 2x2 system with one positive and one
 * negative speed (k = 2, m = 1, the shape of every shipped scenario) from
 * level n0 to level n1 with one step size; every other shape marches in
 * the NumPy kernel only.  Cell j's coefficients r_lam and pi_cols are at
 * column cs * j: cs = 1, or cs = 0 when solver.py found them the same in
 * every cell.  Each step does the operations of the NumPy kernel in
 * solver.py in the same order, so the state is bit-identical:
 *
 *   transport   tilde = inner - (upwind difference) * r_lam
 *   source      inner = tilde + (sum_c Pi[:, c] tilde[c]) * (-step)
 *   functional  L = dx * sum of (p * inner) * inner: each row summed the
 *               way numpy sums a row (pairwise, 8 accumulators), then the
 *               two row sums added
 *   boundary    ghosts = K w_in + M * b[n+1]
 *
 * Both rows' pairwise trees have the same shape, so one recursion over the
 * cells walks them.  When J is a multiple of 8 above 64, numpy's sum of the
 * whole (2, J) state splits at J too, and gives the same bits.  A step keeps
 * no copy of a whole row and no array of the functional's terms, so that W
 * and p are most of what it touches: 51 KB at J = 1600, about the size of a
 * core's L1 data cache.  It updates the cells in place, in chunks, each with
 * a copy of its own old positive values on the stack, and sums each chunk's
 * rows straight from W and p while they are in L1.
 *
 * The march, its chunks and its sums are built once for AVX-512F, once for
 * AVX2 and once for the baseline instruction set, and the loader picks one
 * at the first call (gcc's target_clones, through an ifunc).  The bodies differ in
 * vector width only: each lane does one cell's or one accumulator's
 * operations in their order.  Compile without -ffast-math and with
 * -ffp-contract=off, so that no body reorders a sum or fuses a
 * multiply-add; then all three give the same bits.  CI checks that the
 * clones are there and that the helpers are inlined into them.
 *
 * lyap[n+1] receives L.  The return value is the first level whose L is
 * not finite, or -1; the state is left at that level.
 *
 * hypiss_csv_rows writes CSV rows with every double printed as Python's
 * repr prints it: the shortest decimal that rounds back to it, found with
 * Schubfach (R. Giulietti, "The Schubfach way to render doubles", 2020) on
 * 128-bit products, in repr's layout.  One call writes the rows of several
 * blocks, each with its own prefix and its own columns; a row's head is its
 * number or its slice of a buffer of heads made once per file, so the
 * trajectory prints each cell's "j,x" once and every snapshot of a chunk in
 * one call.  Its Python twin, _python_rows in reports.py, formats the rows
 * when this library cannot be built, with the same bytes.
 */

#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>

/* one body per instruction set, where ELF and glibc give the loader ifuncs
 * and the compiler knows target_clones */
#if defined(__x86_64__) && defined(__ELF__) && defined(__GLIBC__) && defined(__has_attribute)
#if __has_attribute(target_clones)
#define CLONES __attribute__((target_clones("avx512f", "avx2", "default")))
#endif
#endif
#ifndef CLONES
#define CLONES
#endif

/* the most cells updated before their rows are summed; chunks of LEAF
 * cells cost the baseline body about 15 % more at J = 400, in set-up */
#define CHUNK 512
#define LEAF 128            /* the most terms numpy sums in one leaf */

/* numpy's leaf of n <= LEAF terms (p[i] w[i]) w[i]: 8 accumulators over the
 * whole groups of 8, then the rest one by one.  An accumulator that starts
 * at -0.0 holds the bits of one that starts at its first term. */
static inline double leaf(const double *restrict p, const double *restrict w, ptrdiff_t n)
{
    double r[8] = {-0.0, -0.0, -0.0, -0.0, -0.0, -0.0, -0.0, -0.0}, res = -0.0;
    ptrdiff_t i = 0;
    if (n >= 8) {
        for (; i < n - n % 8; i += 8)
            for (int q = 0; q < 8; q++)
                r[q] += (p[i + q] * w[i + q]) * w[i + q];
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
    }
    for (; i < n; i++)
        res += (p[i] * w[i]) * w[i];
    return res;
}

/* numpy's pairwise sum of the n terms (p[i] w[i]) w[i]: above LEAF terms
 * the sums of the first n2 and of the rest, n2 half of n rounded down to a
 * multiple of 8 */
CLONES
static double pairwise(const double *restrict p, const double *restrict w, long n)
{
    if (n <= LEAF)
        return leaf(p, w, n);
    const long n2 = n / 2 - (n / 2) % 8;
    return pairwise(p, w, n2) + pairwise(p + n2, w + n2, n - n2);
}

/* Cells c0 .. c1-1 of one step's transport and source updates, in place.
 * The positive row's upwind cell is read from old, a copy of that row's
 * old values at cells c0-1 .. c1-1; the negative row's upwind cell is
 * still unwritten when it is read. */
static inline void update_cells(double *restrict pos, double *restrict neg,
                                const double *restrict old, const double *restrict r_lam,
                                const double *restrict pi_cols, long nc, long cs,
                                long c0, long c1, double neg_step)
{
    const double *r_pos = r_lam, *r_neg = r_lam + nc;
    const double *pi00 = pi_cols, *pi10 = pi_cols + nc;        /* column 0 */
    const double *pi01 = pi_cols + 2 * nc, *pi11 = pi_cols + 3 * nc;
    for (long j = c0; j < c1; j++) {
        const double *o = old + (j - c0);
        double t0 = o[1] - (o[1] - o[0]) * r_pos[cs * j];
        double t1 = neg[j] - (neg[j + 1] - neg[j]) * r_neg[cs * j];
        double s0 = pi00[cs * j] * t0;
        s0 += pi01[cs * j] * t1;
        double s1 = pi10[cs * j] * t0;
        s1 += pi11[cs * j] * t1;
        pos[j] = t0 + s0 * neg_step;
        neg[j] = t1 + s1 * neg_step;
    }
}

/* one march call's step: the interior rows, the coefficients, and old, the
 * copy of the positive row's old values before and in the next chunk */
struct step {
    double *pos, *neg, *old;
    const double *r_lam, *pi_cols, *p;
    long J, nc, cs;
    double neg_step;
};

/* Cells t .. t+n-1 of one step, updated in place, with each row's sum of
 * their terms (p w) w in sum.  Above CHUNK cells they split where numpy's
 * pairwise sum splits n terms; a chunk of at most CHUNK cells is updated,
 * then the next chunk's old values are copied, then the chunk's two rows
 * are summed while they are in L1.  The copy comes before the sums, whose loads give
 * its stores time to land before the next update loads them. */
CLONES
static void rows(const struct step *s, long t, long n, double sum[2])
{
    if (n > CHUNK) {
        const long n2 = n / 2 - (n / 2) % 8;
        double right[2];
        rows(s, t, n2, sum);
        rows(s, t + n2, n - n2, right);
        sum[0] += right[0];
        sum[1] += right[1];
        return;
    }
    const long rest = s->J - t - n;
    /* the stride a constant, so that the constant case streams only the state */
    if (s->cs)
        update_cells(s->pos, s->neg, s->old, s->r_lam, s->pi_cols, s->nc, 1, t, t + n, s->neg_step);
    else
        update_cells(s->pos, s->neg, s->old, s->r_lam, s->pi_cols, s->nc, 0, t, t + n, s->neg_step);
    s->old[0] = s->old[n];
    memcpy(s->old + 1, s->pos + t + n, (size_t)(rest < CHUNK ? rest : CHUNK) * sizeof(double));
    sum[0] = pairwise(s->p + t, s->pos + t, n);
    sum[1] = pairwise(s->p + s->J + t, s->neg + t, n);
}

/* p: (2, J); r_lam: (2, C) and pi_cols: (2, 2, C) with pi_cols[c][a][j] =
 * Pi_j[a][c], where C = J for cs = 1 and C = 1 for cs = 0; K: (2, 2); M: (2);
 * b: (levels, 2). */
CLONES
long hypiss_march(long J, double *W, const double *r_lam, const double *pi_cols,
                  const double *p, const double *K, const double *M,
                  const double *b, double *lyap, double step, double dx,
                  long n0, long n1, long cs)
{
    const ptrdiff_t w = J + 2;
    double old[CHUNK + 1];
    const struct step s = {W + 1, W + w + 1, old, r_lam, pi_cols, p, J, cs ? J : 1, cs, -step};
    for (long n = n0; n < n1; n++) {
        double sum[2];
        old[0] = W[0];
        memcpy(old + 1, s.pos, (size_t)(J < CHUNK ? J : CHUNK) * sizeof(double));
        rows(&s, 0, J, sum);
        const double L = dx * (sum[0] + sum[1]);
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

/* high 64 bits of the 128-bit product; a compiler without unsigned __int128
 * fails the build, and the writers then format in Python */
__extension__ typedef unsigned __int128 u128;

static uint64_t mul_hi(uint64_t a, uint64_t b)
{
    return (uint64_t)(((u128)a * b) >> 64);
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

static const char PAIRS[] =
    "0001020304050607080910111213141516171819202122232425262728293031323334353637383940414243444546474849"
    "5051525354555657585960616263646566676869707172737475767778798081828384858687888990919293949596979899";

/* the 8 decimal digits of v < 10^8, leading zeros included, at p */
static void put8(char *p, uint32_t v)
{
    const uint32_t hi = v / 10000, lo = v % 10000;
    memcpy(p, PAIRS + 2 * (hi / 100), 2);
    memcpy(p + 2, PAIRS + 2 * (hi % 100), 2);
    memcpy(p + 4, PAIRS + 2 * (lo / 100), 2);
    memcpy(p + 6, PAIRS + 2 * (lo % 100), 2);
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
    /* f < 10^17 as 1 + 8 + 8 digits, padded with '0's so that the fixed-size
     * copies below may read past the last digit; none of them writes more
     * than 23 bytes from p, which with the sign is within 24 */
    char digits[33];
    digits[0] = (char)('0' + f / UINT64_C(10000000000000000));
    put8(digits + 1, (uint32_t)(f / 100000000 % 100000000));
    put8(digits + 9, (uint32_t)(f % 100000000));
    memset(digits + 17, '0', 16);
    const char *d = digits;
    int end = 17;
    while (*d == '0')
        d++;
    for (; digits[end - 1] == '0'; e++)
        end--;
    const int n = (int)(digits + end - d);
    const int decpt = n + e;                /* v = 0.d 10^decpt */
    if (decpt > -4 && decpt <= 0) {         /* 0.000ddd */
        memcpy(p, "0.000", 5);
        memcpy(p + 2 - decpt, d, 17);
        return p + 2 - decpt + n;
    }
    if (decpt > 0 && decpt < n) {           /* dd.ddd */
        char s[33];
        memcpy(s, d, 16);
        s[decpt] = '.';
        memcpy(s + decpt + 1, d + decpt, 16);
        memcpy(p, s, 18);
        return p + n + 1;
    }
    if (decpt >= n && decpt <= 16) {        /* ddd00.0 */
        memcpy(p, d, 16);
        memcpy(p + decpt, ".0", 2);
        return p + decpt + 2;
    }
    p[0] = d[0];                            /* d.ddde+XX, or de+XX for n = 1 */
    p[1] = '.';
    memcpy(p + 2, d + 1, 16);
    p += n > 1 ? n + 1 : 1;
    int x = decpt - 1;
    *p++ = 'e';
    *p++ = x < 0 ? '-' : '+';
    x = x < 0 ? -x : x;
    if (x >= 100)
        *p++ = (char)('0' + x / 100);
    *p++ = (char)('0' + x / 10 % 10);
    *p++ = (char)('0' + x % 10);
    return p;
}

/* g: the table above, (617, 2).  Writes the rows of nblocks blocks into out
 * and returns the bytes written.  Block b is described by blocks[4b .. 4b+3] =
 * (prefix offset, prefix length, first, count) and has the rows r = first ..
 * first+count-1.  Row r is the prefix (that many bytes of prefixes from that
 * offset), the head, then for each column c a comma and repr of
 * cols[b ncols + c][r * strides[b ncols + c]], or nothing where that pointer
 * is NULL, then a newline.  The head is r in decimal where heads is NULL, and
 * else heads[head_at[r]] .. heads[head_at[r + 1] - 1].  out must hold each
 * row's prefix and head (21 bytes for r) and 1 + 25 ncols bytes more. */
long hypiss_csv_rows(const uint64_t *g, char *out, long nblocks, const long *blocks,
                     const char *prefixes, long ncols, const double *const *cols,
                     const long *strides, const char *heads, const long *head_at)
{
    char *p = out;
    for (long b = 0; b < nblocks; b++) {
        const long *block = blocks + 4 * b, *step = strides + b * ncols;
        const double *const *col = cols + b * ncols;
        for (long r = block[2]; r < block[2] + block[3]; r++) {
            p = put(p, prefixes + block[0], (int)block[1]);
            if (heads != NULL) {
                p = put(p, heads + head_at[r], (int)(head_at[r + 1] - head_at[r]));
            } else {
                char digits[20];
                int n = 0;
                long i = r;
                do
                    digits[n++] = (char)('0' + i % 10);
                while ((i /= 10) != 0);
                while (n > 0)
                    *p++ = digits[--n];
            }
            for (long c = 0; c < ncols; c++) {
                *p++ = ',';
                if (col[c] != NULL)
                    p = format_double(p, col[c][r * step[c]], g);
            }
            *p++ = '\n';
        }
    }
    return (long)(p - out);
}
