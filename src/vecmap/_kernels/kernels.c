/* Compiled kernels of vecmap: plain C over double and int64_t arrays.
 *
 * vecmap._kernels compiles this file on first import and binds the five
 * entries below through ctypes.  For the four numeric kernels the caller
 * checks every shape, index and value domain first (pair_terms' rows too:
 * it reads points at them), so they do not validate their input.  Each
 * returns the same bits as its numpy body in _pure.py: the same operations
 * on the same operands in the same order, sums in numpy's pairwise order.
 * That needs -ffp-contract=off, so that no multiply and add fuse into one
 * rounding.  The fifth, json_tokens, reads untrusted text: it bounds
 * every read by the text's length and every write by its buffers' caps,
 * and parses numbers in the C locale whatever the process's locale is.
 *
 * The Manhattan and Chamfer loops are compiled once per ISA (AVX-512F,
 * AVX2 and the baseline) with GCC's target_clones, and the dynamic loader
 * picks the best clone for the running CPU when the library is opened.
 * Every clone is compiled with the same -ffp-contract=off and vectorizes
 * only across independent sums and exact minima, so each returns the same
 * bits.  The build has no -march=native: the cached library is named by
 * the source and the flags alone, so a tree copied to another CPU would
 * load code built for the wrong ISA.  The clones keep one portable
 * library.  The focal table, pair_terms and json_tokens are not cloned:
 * their time goes to scalar libm pow and log, to the call itself, and to
 * strtod_l.
 */

#define _GNU_SOURCE /* for strtod_l */
#include <locale.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* One clone per ISA on x86-64 ELF with GCC or Clang; elsewhere one plain
 * function, so the file still builds on every other target. */
#if (defined(__GNUC__) || defined(__clang__)) && defined(__x86_64__) && defined(__ELF__)
#define CLONED __attribute__((target_clones("avx512f", "avx2", "default")))
#define CPU_HAS(isa) (__builtin_cpu_init(), __builtin_cpu_supports(isa))
#else
#define CLONED
#define CPU_HAS(isa) 0
#endif

/* The clone the loader picks: the first ISA of the clone list the CPU
 * supports, or "default". */
const char *kernel_isa(void)
{
    if (CPU_HAS("avx512f"))
        return "avx512f";
    if (CPU_HAS("avx2"))
        return "avx2";
    return "default";
}

/* Least summed Manhattan cost over orderings, for every (prediction,
 * ground truth) pair.
 *
 * pred (P, n, 2), gts (G, n, 2) and perms (K, n) are C-contiguous; ordering
 * k aligns pred[p, j] with gts[g, perms[k, j]].  Writes costs (P, G) and
 * best (P, G), the first ordering attaining each minimum.  Each cost adds
 * term = |dx| + |dy| over j in order, starting from 0.  The predictions are
 * transposed into scratch (2 * n * P + P doubles) as (n, P) rows first, so
 * the innermost loop runs over p with one independent sum per prediction.
 */
CLONED void manhattan_matrix(const double *pred, const double *gts, const int64_t *perms,
                             int64_t P, int64_t G, int64_t K, int64_t n,
                             double *costs, int64_t *best, double *scratch)
{
    double *px = scratch, *py = px + n * P, *acc = py + n * P;
    for (int64_t p = 0; p < P; p++)
        for (int64_t j = 0; j < n; j++) {
            px[j * P + p] = pred[(p * n + j) * 2];
            py[j * P + p] = pred[(p * n + j) * 2 + 1];
        }
    for (int64_t g = 0; g < G; g++) {
        const double *gt = gts + g * n * 2;
        for (int64_t k = 0; k < K; k++) {
            const int64_t *perm = perms + k * n;
            for (int64_t p = 0; p < P; p++)
                acc[p] = 0.0;
            for (int64_t j = 0; j < n; j++) {
                const double qx = gt[perm[j] * 2], qy = gt[perm[j] * 2 + 1];
                const double *x = px + j * P, *y = py + j * P;
                for (int64_t p = 0; p < P; p++)
                    acc[p] = acc[p] + (fabs(x[p] - qx) + fabs(y[p] - qy));
            }
            for (int64_t p = 0; p < P; p++)
                if (k == 0 || acc[p] < costs[p * G + g]) {
                    costs[p * G + g] = acc[p];
                    best[p * G + g] = k;
                }
        }
    }
}

/* Symmetric mean Chamfer distance of every pair of two point-set stacks.
 *
 * a (P, n, 2) and b (G, m, 2) are C-contiguous, with n, m >= 1.  Writes
 * out (P, G).  Per pair, each point's nearest squared distance is
 * dx*dx + dy*dy; each direction sums the sqrt of those left to right and
 * divides by its count, and the two means are averaged.  near_b is scratch
 * for m doubles.
 */
CLONED void chamfer_matrix(const double *a, const double *b, int64_t P, int64_t n,
                           int64_t G, int64_t m, double *out, double *near_b)
{
    for (int64_t p = 0; p < P; p++) {
        const double *ap = a + p * n * 2;
        for (int64_t g = 0; g < G; g++) {
            const double *bg = b + g * m * 2;
            double ab = 0.0, ba = 0.0;
            for (int64_t j = 0; j < m; j++)
                near_b[j] = INFINITY;
            for (int64_t i = 0; i < n; i++) {
                const double x = ap[2 * i], y = ap[2 * i + 1];
                double near_a = INFINITY;
                for (int64_t j = 0; j < m; j++) {
                    const double dx = x - bg[2 * j], dy = y - bg[2 * j + 1];
                    const double d2 = dx * dx + dy * dy;
                    near_a = d2 < near_a ? d2 : near_a;
                    near_b[j] = d2 < near_b[j] ? d2 : near_b[j];
                }
                ab = ab + sqrt(near_a);
            }
            for (int64_t j = 0; j < m; j++)
                ba = ba + sqrt(near_b[j]);
            out[p * G + g] = 0.5 * (ab / (double)n + ba / (double)m);
        }
    }
}

/* Focal matching cost of each score, as the score of its class slot:
 *
 *     alpha * (1 - s)^gamma * -log(s + eps)
 *         - (1 - alpha) * s^gamma * -log(1 - s + eps)
 *
 * with libm pow and log, operands grouped as in _pure.focal_cost.  For
 * scores in [0, 1] and gamma >= 0 this equals Python's float ** and
 * math.log, which call the same libm functions there.
 */
void focal_cost_table(const double *scores, int64_t count, double gamma,
                      double alpha, double eps, double *out)
{
    for (int64_t i = 0; i < count; i++) {
        const double s = scores[i];
        const double pos = alpha * pow(1.0 - s, gamma) * -log(s + eps);
        const double neg = (1.0 - alpha) * pow(s, gamma) * -log(1.0 - s + eps);
        out[i] = pos - neg;
    }
}

/* numpy's pairwise_sum of a[0, n): in order from -0.0 under 8 terms, eight
 * accumulators up to 128, else halves split at a multiple of 8.  A row's
 * ndarray.sum is 0.0 plus this. */
static double pairwise_sum(const double *a, int64_t n)
{
    if (n < 8) {
        double res = -0.0;
        for (int64_t i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n > 128) {
        const int64_t half = n / 2 - (n / 2) % 8;
        return pairwise_sum(a, half) + pairwise_sum(a + half, n - half);
    }
    double r[8], res;
    int64_t i;
    for (i = 0; i < 8; i++)
        r[i] = a[i];
    for (; i < n - n % 8; i += 8)
        for (int k = 0; k < 8; k++)
            r[k] += a[i + k];
    res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
    for (; i < n; i++)
        res += a[i];
    return res;
}

/* The point2point and edge-direction terms of M matched pairs, and their
 * gradient wrt points (P, n, 2), as _pure.pair_terms_into computes them.
 *
 * Pair i joins points[rows[i]] to aligned[i] (n, 2); closed[i] marks a
 * polygon.  Edge j runs from point j to point j+1 mod n; a polyline has no
 * edge n - 1, and an edge of either side no longer than norm_floor has
 * cosine 0.  Writes p2p[i], the sum of |diff| over x0, y0, x1, ..., and
 * dir[i], the sum of pair i's edge cosines, each as numpy's .sum(axis=1)
 * adds them; d_points is 0 off the matched rows, and on them
 * (0 + alpha * sign(diff)) - beta * (dcos_j - dcos_{j-1}).  scratch holds
 * 5 * n doubles.
 */
void pair_terms(const double *points, const int64_t *rows, const double *aligned,
                const uint8_t *closed, int64_t P, int64_t M, int64_t n, double alpha,
                double beta, double norm_floor, double *p2p, double *dir,
                double *d_points, double *scratch)
{
    double *absdiff = scratch, *cosine = absdiff + 2 * n, *dcos = cosine + n;
    memset(d_points, 0, (size_t)(P * n * 2) * sizeof(double));
    for (int64_t i = 0; i < M; i++) {
        const double *p = points + rows[i] * n * 2, *g = aligned + i * n * 2;
        double *d = d_points + rows[i] * n * 2;
        for (int64_t j = 0; j < n; j++) {
            const int64_t k = j + 1 < n ? 2 * (j + 1) : 0;
            const double pex = p[2 * j] - p[k], pey = p[2 * j + 1] - p[k + 1];
            const double gex = g[2 * j] - g[k], gey = g[2 * j + 1] - g[k + 1];
            const double pn = sqrt(pex * pex + pey * pey), gn = sqrt(gex * gex + gey * gey);
            double c = 0.0, dx = 0.0, dy = 0.0;
            if (pn > norm_floor && gn > norm_floor && (closed[i] || j < n - 1)) {
                c = (0.0 + (pex * gex + pey * gey)) / (pn * gn);
                dx = gex / (pn * gn) - c * pex / (pn * pn);
                dy = gey / (pn * gn) - c * pey / (pn * pn);
            }
            cosine[j] = c, dcos[2 * j] = dx, dcos[2 * j + 1] = dy;
        }
        for (int64_t j = 0; j < 2 * n; j++) {
            const double diff = p[j] - g[j], sign = diff > 0 ? 1.0 : diff < 0 ? -1.0 : 0.0;
            absdiff[j] = fabs(diff);
            d[j] = (0.0 + alpha * sign) - beta * (dcos[j] - dcos[j >= 2 ? j - 2 : j + 2 * n - 2]);
        }
        p2p[i] = 0.0 + pairwise_sum(absdiff, 2 * n);
        dir[i] = 0.0 + pairwise_sum(cosine, closed[i] ? n : n - 1);
    }
}

#define DIGIT(c) ((unsigned char)((c) - '0') < 10)
#define IN_NUMBER(c) (DIGIT(c) || (c) == '.' || (c) == 'e' || (c) == 'E' || (c) == '+' || (c) == '-')

/* The C locale for strtod_l, made once when the library is loaded. */
static locale_t c_locale;
__attribute__((constructor)) static void make_c_locale(void)
{
    c_locale = newlocale(LC_NUMERIC_MASK, "C", (locale_t)0);
}

/* The tokens of JSON text text[0, len), with no schema.  Each number goes
 * to numbers (at most ncap) and to skeleton (at most scap bytes) as '#' if
 * it has a fraction or exponent, else 'i'; strings and {}[]:, are copied,
 * and whitespace is dropped.  Returns the count of numbers, or -1 for a
 * string with a backslash or a control byte, a number outside the JSON
 * grammar or over 31 bytes, any other byte, or a full buffer. */
int64_t json_tokens(const char *text, int64_t len, double *numbers, int64_t ncap,
                    char *skeleton, int64_t scap, int64_t *skeleton_len)
{
    int64_t count = 0, s = 0;
    for (int64_t i = 0, j; i < len; i = j) {
        const char c = text[i];
        j = i + 1;
        if (c == ' ' || c == '\t' || c == '\n' || c == '\r')
            continue;
        if (s == scap)
            return -1;
        if (c == '"') {
            while (j < len && text[j] != '"' && text[j] != '\\' && (unsigned char)text[j] >= 0x20)
                j++;
            if (j == len || text[j] != '"' || ++j - i > scap - s)
                return -1;
            memcpy(skeleton + s, text + i, j - i);
            s += j - i;
        } else if (c && strchr("{}[]:,", c)) {
            skeleton[s++] = c;
        } else { /* a number, or a byte that fails its grammar check */
            char token[32], *end;
            for (j = i; j < len && IN_NUMBER(text[j]); j++)
                if (j - i == (int64_t)sizeof token - 1)
                    return -1;
            memcpy(token, text + i, j - i);
            token[j - i] = '\0';
            /* JSON's grammar, which strtod_l's is wider than: a digit after
             * the sign and after the point, and no leading zero. */
            const char *digit = token + (c == '-'), *point = strchr(token, '.');
            if (!DIGIT(digit[0]) || (digit[0] == '0' && DIGIT(digit[1])) || (point && !DIGIT(point[1]))
                || count == ncap || !c_locale)
                return -1;
            numbers[count++] = strtod_l(token, &end, c_locale);
            if (end != token + (j - i))
                return -1;
            skeleton[s++] = strpbrk(token, ".eE") ? '#' : 'i';
        }
    }
    *skeleton_len = s;
    return count;
}
