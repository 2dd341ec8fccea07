/* Compiled kernels of vecmap: plain C over double and int64_t arrays.
 *
 * vecmap._kernels compiles this file on first import and binds the three
 * entries below through ctypes; the caller checks every shape, index and
 * value domain first, so nothing here validates its input.  Each entry
 * returns the same bits as its numpy body in _pure.py: the same operations
 * on the same operands in the same order.  That needs -ffp-contract=off,
 * so that no multiply and add fuse into one rounding.
 *
 * The Manhattan and Chamfer loops are compiled once per ISA (AVX-512F,
 * AVX2 and the baseline) with GCC's target_clones, and the dynamic loader
 * picks the best clone for the running CPU when the library is opened.
 * Every clone is compiled with the same -ffp-contract=off and vectorizes
 * only across independent sums and exact minima, so each returns the same
 * bits.  The build has no -march=native: the cached library is named by
 * the source and the flags alone, so a tree copied to another CPU would
 * load code built for the wrong ISA.  The clones keep one portable
 * library.  The focal table is not cloned: its time goes to scalar libm
 * pow and log.
 */

#include <math.h>
#include <stdint.h>

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
