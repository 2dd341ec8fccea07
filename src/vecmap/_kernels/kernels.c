/* Compiled kernels of vecmap: plain C over double and int64_t arrays.
 *
 * vecmap._kernels compiles this file on first import and binds the seven
 * entries below through ctypes.  For the six numeric kernels the caller
 * checks every shape, index and value domain first (pair_terms' and
 * focal_terms' rows too: they index by them), so they do not validate their
 * input.  Each returns the same bits as its numpy body in _pure.py: the
 * same operations on the same operands in the same order, sums in numpy's
 * pairwise order.  That needs -ffp-contract=off, so that no multiply and
 * add fuse into one rounding.  focal_terms takes its logs and powers from
 * numpy, whose log and power round differently from libm's.
 * chamfer_matrix takes a cutoff: a pair whose bounding boxes lie at least
 * that far apart is written +inf and not computed, on both backends alike.
 * The seventh, json_tokens, reads untrusted text: it bounds every read by
 * the text's length and every write by its buffers' caps, and parses
 * numbers in the C locale whatever the process's locale is.
 *
 * The build also has -fno-math-errno, without which GCC keeps each sqrt a
 * call that may set errno and does not vectorize the loops around it.  It
 * changes no result: sqrt returns the same correctly rounded value either
 * way, and every sqrt operand here is >= 0 (sums of squares, nearest
 * squared distances and second moments), where sqrt sets no errno.
 *
 * The Manhattan, Chamfer and Adam loops are compiled once per ISA
 * (AVX-512F, AVX2 and the baseline) with GCC's target_clones, and the
 * dynamic loader picks the best clone for the running CPU when the library
 * is opened.  Every clone is compiled with the same -ffp-contract=off and
 * vectorizes only across independent sums, exact minima and independent
 * elements, so each returns the same bits.  The build has no -march=native:
 * the cached library is named by the source and the flags alone, so a tree
 * copied to another CPU would load code built for the wrong ISA.  The
 * clones keep one portable library.  The focal table, pair_terms,
 * focal_terms and json_tokens are not cloned: their time goes to scalar
 * libm pow and log, to the call itself, and to json_tokens' byte loop,
 * which parses the short decimals scene files hold without strtod_l.
 */

#define _GNU_SOURCE /* for strtod_l */
#include <float.h>
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
 * transposed into scratch (2 * n * S + S doubles) as (n, S) rows first, so
 * the innermost loop runs over p with one independent sum per prediction.
 * The row stride S is P rounded up to a multiple of 8 doubles (64 bytes),
 * and pad lanes P..S-1 hold 0: the sums run over whole vectors with no
 * scalar tail, and no pad lane is ever compared or written out.  The
 * binder hands in scratch on a 64-byte boundary, so with that stride every
 * row starts on one too: the loop's speed then does not depend on where
 * the heap put the buffer (16 or 40 bytes off it, the AVX-512 clone took
 * up to 1.6x as long).
 */
CLONED void manhattan_matrix(const double *pred, const double *gts, const int64_t *perms,
                             int64_t P, int64_t G, int64_t K, int64_t n,
                             double *costs, int64_t *best, double *scratch)
{
    const int64_t S = (P + 7) / 8 * 8;
    double *px = scratch, *py = px + n * S, *acc = py + n * S;
    for (int64_t j = 0; j < n; j++)
        for (int64_t p = P; p < S; p++)
            px[j * S + p] = py[j * S + p] = 0.0;
    for (int64_t p = 0; p < P; p++)
        for (int64_t j = 0; j < n; j++) {
            px[j * S + p] = pred[(p * n + j) * 2];
            py[j * S + p] = pred[(p * n + j) * 2 + 1];
        }
    for (int64_t g = 0; g < G; g++) {
        const double *gt = gts + g * n * 2;
        for (int64_t k = 0; k < K; k++) {
            const int64_t *perm = perms + k * n;
            for (int64_t p = 0; p < S; p++)
                acc[p] = 0.0;
            for (int64_t j = 0; j < n; j++) {
                const double qx = gt[perm[j] * 2], qy = gt[perm[j] * 2 + 1];
                const double *x = px + j * S, *y = py + j * S;
                for (int64_t p = 0; p < S; p++)
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

/* Symmetric mean Chamfer distance of every pair of two point-set stacks,
 * or +inf for a pair whose bounding boxes lie at least cutoff apart.
 *
 * a (P, n, 2) and b (G, m, 2) are C-contiguous, with n, m >= 1.  Writes
 * out (P, G).  Per pair, each point's nearest squared distance is
 * dx*dx + dy*dy; each direction sums the sqrt of those left to right and
 * divides by its count, and the two means are averaged.
 *
 * When cutoff * cutoff is a finite normal double, every set's bounding box
 * goes once to box (4 * (P + G) doubles: min x, max x, min y, max y).  A
 * pair whose boxes are gx apart in x and gy in y (0 where they overlap),
 * with gx*gx + gy*gy >= cutoff * cutoff, is skipped and written +inf:
 * each of its nearest distances, so its Chamfer distance, is at least the
 * gap.  near_b is scratch for m doubles.
 */
static void bounding_boxes(const double *s, int64_t count, int64_t n, double *box)
{
    for (int64_t k = 0; k < count; k++, s += 2 * n, box += 4) {
        box[0] = box[1] = s[0], box[2] = box[3] = s[1];
        for (int64_t i = 1; i < n; i++) {
            box[0] = fmin(box[0], s[2 * i]), box[1] = fmax(box[1], s[2 * i]);
            box[2] = fmin(box[2], s[2 * i + 1]), box[3] = fmax(box[3], s[2 * i + 1]);
        }
    }
}

CLONED void chamfer_matrix(const double *a, const double *b, int64_t P, int64_t n,
                           int64_t G, int64_t m, double cutoff, double *out, double *near_b,
                           double *box)
{
    const double cut2 = cutoff * cutoff;
    const int prune = cut2 >= DBL_MIN && cut2 < INFINITY;
    if (prune) {
        bounding_boxes(a, P, n, box);
        bounding_boxes(b, G, m, box + 4 * P);
    }
    for (int64_t p = 0; p < P; p++) {
        const double *ap = a + p * n * 2, *abox = box + 4 * p;
        for (int64_t g = 0; g < G; g++) {
            const double *bg = b + g * m * 2, *bbox = box + 4 * (P + g);
            if (prune) {
                const double gx = fmax(0.0, fmax(bbox[0] - abox[1], abox[0] - bbox[1]));
                const double gy = fmax(0.0, fmax(bbox[2] - abox[3], abox[2] - bbox[3]));
                if (gx * gx + gy * gy >= cut2) {
                    out[p * G + g] = INFINITY;
                    continue;
                }
            }
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

/* The sigmoid focal loss of P prediction slots and its gradient, as
 * _pure.focal_terms_into computes them.
 *
 * s (P * 3) holds the scores.  logs_powers (6, P * 3) holds what numpy
 * computed from them: log(s + eps), log((1 - s) + eps), (1 - s)^gamma,
 * (1 - s)^(gamma - 1), s^gamma and s^(gamma - 1); libm's log and pow round
 * some of those differently.  Entry 3 * rows[k] + classes[k] of each of
 * the M pairs takes the positive-target branch, every other entry the
 * negative one.  Writes each entry's loss, d_scores = lam * its gradient
 * and d_logits = (d_scores * s) * (1 - s), and returns the losses' sum
 * as ndarray.sum adds them.
 */
double focal_terms(const double *s, const double *logs_powers, const int64_t *rows,
                   const int64_t *classes, int64_t P, int64_t M, double gamma, double alpha,
                   double lam, double eps, double *loss, double *d_scores, double *d_logits)
{
    const int64_t count = 3 * P;
    const double *pos_log = logs_powers, *neg_log = pos_log + count, *q_g = neg_log + count;
    const double *q_g1 = q_g + count, *s_g = q_g1 + count, *s_g1 = s_g + count;
    for (int64_t i = 0; i < count; i++) {
        loss[i] = (1.0 - alpha) * s_g[i] * -neg_log[i];
        d_scores[i] = lam * ((1.0 - alpha) * (-gamma * s_g1[i] * neg_log[i]
                                              + s_g[i] / (1.0 - s[i] + eps)));
    }
    for (int64_t k = 0; k < M; k++) {
        const int64_t i = 3 * rows[k] + classes[k];
        loss[i] = alpha * q_g[i] * -pos_log[i];
        d_scores[i] = lam * (alpha * (gamma * q_g1[i] * pos_log[i] - q_g[i] / (s[i] + eps)));
    }
    for (int64_t i = 0; i < count; i++)
        d_logits[i] = d_scores[i] * s[i] * (1.0 - s[i]);
    return 0.0 + pairwise_sum(loss, count);
}

/* One bias-corrected adaptive-moment step on count parameters x, in place,
 * as _pure.adam_into takes it: with gradient g, the moments m and v become
 * b1 * m + (1 - b1) * g and b2 * v + (1 - b2) * (g * g), and x moves by
 * -(lr * (m / c1)) / (sqrt(v / c2) + eps), then is clipped to [0, 1] when
 * clip is nonzero as np.clip clips: NaN and -0.0 stay.  c1 and c2 are the
 * bias corrections 1 - b1^t and 1 - b2^t of step t.
 */
CLONED void adam_step(double *x, const double *g, double *m, double *v, int64_t count,
                      int64_t clip, double b1, double b2, double lr, double eps, double c1,
                      double c2)
{
    for (int64_t i = 0; i < count; i++) {
        m[i] = b1 * m[i] + (1.0 - b1) * g[i];
        v[i] = b2 * v[i] + (1.0 - b2) * (g[i] * g[i]);
        const double y = x[i] - lr * (m[i] / c1) / (sqrt(v[i] / c2) + eps);
        x[i] = clip ? (y < 0.0 ? 0.0 : y > 1.0 ? 1.0 : y) : y;
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

/* The end of the digit run at text[j, len), each digit appended to *mant
 * (wrapping past 19 digits) and counted in *sig from the first nonzero. */
static int64_t digits(const char *text, int64_t j, int64_t len, uint64_t *mant, int64_t *sig)
{
    for (; j < len && DIGIT(text[j]); j++) {
        *mant = *mant * 10 + (uint64_t)(text[j] - '0');
        *sig += *mant != 0;
    }
    return j;
}

/* 10^k for k <= 22: every one an exact double. */
static const double POW10[23] = {1e0,  1e1,  1e2,  1e3,  1e4,  1e5,  1e6,  1e7,
                                 1e8,  1e9,  1e10, 1e11, 1e12, 1e13, 1e14, 1e15,
                                 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22};

/* The tokens of JSON text text[0, len), with no schema.  Each number goes
 * to numbers (at most ncap) and to skeleton (at most scap bytes) as '#' if
 * it has a fraction or exponent, else 'i'; strings and {}[]:, are copied,
 * and whitespace is dropped.  Returns the count of numbers, or -1 for a
 * string with a backslash or a control byte, a number outside the JSON
 * grammar or over 31 bytes, any other byte, or a full buffer.
 *
 * One pass checks a number's grammar and gathers its significant digits.
 * With no exponent, at most 15 significant digits and at most 22 fraction
 * digits, the number is mant / 10^k of two exact doubles, one correctly
 * rounded division (Clinger's fast path, PLDI 1990), so it equals what
 * strtod_l gives; every number write_scene writes is of that form.  Any
 * other number is copied out and parsed by strtod_l. */
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
        } else if (c == '{' || c == '}' || c == '[' || c == ']' || c == ':' || c == ',') {
            skeleton[s++] = c;
        } else { /* a number, or a byte that fails its grammar check */
            uint64_t mant = 0;
            int64_t sig = 0, first = i + (c == '-'), frac = 0, exponent = 0;
            /* JSON's grammar: a digit after the sign and after the point, no
             * leading zero, and digits after the exponent's sign. */
            j = digits(text, first, len, &mant, &sig);
            if (j == first || (text[first] == '0' && j - first > 1))
                return -1;
            if (j < len && text[j] == '.') {
                const int64_t point = j + 1;
                j = digits(text, point, len, &mant, &sig);
                if (j == point)
                    return -1;
                frac = j - point;
            }
            if (j < len && (text[j] == 'e' || text[j] == 'E')) {
                j += 1 + (j + 1 < len && (text[j + 1] == '+' || text[j + 1] == '-'));
                exponent = j; /* where its digits start: never 0 */
                while (j < len && DIGIT(text[j]))
                    j++;
                if (j == exponent)
                    return -1;
            }
            if ((j < len && IN_NUMBER(text[j])) || j - i > 31 || count == ncap)
                return -1;
            if (!exponent && sig <= 15 && frac <= 22) {
                const double value = (double)mant / POW10[frac];
                numbers[count++] = c == '-' ? -value : value;
            } else { /* strtod_l's grammar holds JSON's: it reads the whole token */
                char token[32];
                memcpy(token, text + i, j - i);
                token[j - i] = '\0';
                if (!c_locale)
                    return -1;
                numbers[count++] = strtod_l(token, NULL, c_locale);
            }
            skeleton[s++] = frac || exponent ? '#' : 'i';
        }
    }
    *skeleton_len = s;
    return count;
}
