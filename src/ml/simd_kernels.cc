/**
 * @file
 * Vector-tier kernel bodies (DESIGN.md §16): AVX2+FMA batch
 * transcendentals, the register-blocked GEMM row kernel and the fused
 * LSTM gate row kernel.  These are the vector tier's only bodies: the
 * scalar tier lives in matrix.cc / lstm.cc / fastmath.hh, and the two
 * dispatch sites there check the effective tier before calling in, so
 * no scalar copy is kept here.  Under -DADRIAS_SIMD=OFF (or on
 * a non-x86 compiler) the entry points panic: the tier then never
 * reports Vector, so no library path can reach them.
 *
 * This is the only translation unit (with simd.hh/simd.cc) allowed to
 * touch raw intrinsics — enforced by the `raw-intrinsics` lint rule.
 * The AVX2 bodies carry per-function
 * __attribute__((target("avx2,fma"))) instead of TU-wide -mavx2: the
 * rest of this file (and the whole tree) compiles for the baseline
 * ISA, so a non-AVX2 host never fetches an AVX2 instruction — the
 * runtime __builtin_cpu_supports check behind vectorTierAvailable()
 * keeps the effective tier at Scalar there, and no target("avx2")
 * function is ever entered.
 *
 * Math notes: the vector transcendentals run the *same* reduction and
 * polynomial as ml/fastmath.hh (exp(x) = 2^n·exp(r), two-part ln 2,
 * degree-12 Taylor, magic-constant rounding, bit-level 2^n), with two
 * deliberate deviations that define the tolerance tier:
 *  - Horner steps and the range reduction use FMA (one rounding
 *    instead of two per step), so interior results differ from scalar
 *    by ulps;
 *  - AVX2 has no 64-bit arithmetic right shift, so n is recovered via
 *    cvtpd_epi32 → cvtepi32_epi64 (nd is a small exact integer, so
 *    the int32 round-trip is exact).
 * Specials (NaN, ±0, ±inf, denormals, the −708 cutoff) are handled by
 * mask blends and agree with the scalar tier bit for bit
 * (tests/ml/test_fastmath_edges.cc).
 */

#include "ml/simd.hh"

#include "common/logging.hh"
#include "ml/fastmath.hh"

#if !defined(ADRIAS_SIMD_ENABLED)
#define ADRIAS_SIMD_ENABLED 1
#endif

#if ADRIAS_SIMD_ENABLED && defined(__x86_64__) && \
    (defined(__GNUC__) || defined(__clang__))
#define ADRIAS_SIMD_X86 1
#else
#define ADRIAS_SIMD_X86 0
#endif

#if ADRIAS_SIMD_X86
#include <immintrin.h>
#endif

namespace adrias::ml
{

#if ADRIAS_SIMD_X86

namespace
{

#define ADRIAS_AVX2 __attribute__((target("avx2,fma")))

/** exp(x) for x <= 0 across four lanes; see fastmath::expNeg. */
ADRIAS_AVX2 inline __m256d
expNegLanes(__m256d x)
{
    const __m256d magic = _mm256_set1_pd(6755399441055744.0);
    const __m256d log2e = _mm256_set1_pd(1.4426950408889634074);
    const __m256d ln2hi = _mm256_set1_pd(6.93147180369123816490e-01);
    const __m256d ln2lo = _mm256_set1_pd(1.90821492927058770002e-10);

    // Guard lanes exactly as the scalar does: !(x > -708) returns NaN
    // for NaN and 0 otherwise.  The ordered GT compare is false for
    // NaN, so `ok` is the main-path mask.
    const __m256d ok =
        _mm256_cmp_pd(x, _mm256_set1_pd(-708.0), _CMP_GT_OQ);
    const __m256d isnan = _mm256_cmp_pd(x, x, _CMP_UNORD_Q);
    // Clamp guarded-out lanes onto a harmless input so the exponent
    // construction below never sees n < -1021 garbage.
    const __m256d xs = _mm256_blendv_pd(_mm256_set1_pd(-1.0), x, ok);

    const __m256d shifted = _mm256_fmadd_pd(xs, log2e, magic);
    const __m256d nd = _mm256_sub_pd(shifted, magic);
    // nd is a small exact integer (|n| <= 1022), so the int32
    // round-trip is exact; widen back to per-lane int64.
    const __m256i n = _mm256_cvtepi32_epi64(_mm256_cvtpd_epi32(nd));
    __m256d r = _mm256_fnmadd_pd(nd, ln2hi, xs);
    r = _mm256_fnmadd_pd(nd, ln2lo, r);

    __m256d p = _mm256_set1_pd(1.0 / 479001600.0);
    p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0 / 39916800.0));
    p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0 / 3628800.0));
    p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0 / 362880.0));
    p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0 / 40320.0));
    p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0 / 5040.0));
    p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0 / 720.0));
    p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0 / 120.0));
    p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0 / 24.0));
    p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0 / 6.0));
    p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(0.5));
    p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0));
    p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0));

    const __m256i biased =
        _mm256_add_epi64(n, _mm256_set1_epi64x(1023));
    const __m256d scale =
        _mm256_castsi256_pd(_mm256_slli_epi64(biased, 52));
    __m256d result = _mm256_mul_pd(p, scale);
    // Below the cutoff: +0.0 exactly as the scalar; NaN propagates x.
    result = _mm256_and_pd(result, ok);
    return _mm256_blendv_pd(result, x, isnan);
}

/** expm1(r) for -0.25 <= r <= 0 lanes; see fastmath::expm1SmallNeg. */
ADRIAS_AVX2 inline __m256d
expm1SmallNegLanes(__m256d r)
{
    __m256d p = _mm256_set1_pd(1.0 / 479001600.0);
    p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0 / 39916800.0));
    p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0 / 3628800.0));
    p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0 / 362880.0));
    p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0 / 40320.0));
    p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0 / 5040.0));
    p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0 / 720.0));
    p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0 / 120.0));
    p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0 / 24.0));
    p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0 / 6.0));
    p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(0.5));
    p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0));
    return _mm256_mul_pd(p, r);
}

ADRIAS_AVX2 inline __m256d
absLanes(__m256d x)
{
    return _mm256_andnot_pd(_mm256_set1_pd(-0.0), x);
}

ADRIAS_AVX2 inline __m256d
negLanes(__m256d x)
{
    return _mm256_xor_pd(x, _mm256_set1_pd(-0.0));
}

/** Logistic sigmoid lanes, sign-split like fastmath::sigmoid. */
ADRIAS_AVX2 inline __m256d
sigmoidLanes(__m256d x)
{
    const __m256d one = _mm256_set1_pd(1.0);
    const __m256d e = expNegLanes(negLanes(absLanes(x)));
    const __m256d denom = _mm256_add_pd(one, e);
    // x >= 0 (NaN compares false, so NaN lanes take e/(1+e) = NaN,
    // matching the scalar's else branch).
    const __m256d pos =
        _mm256_cmp_pd(x, _mm256_setzero_pd(), _CMP_GE_OQ);
    const __m256d num = _mm256_blendv_pd(e, one, pos);
    return _mm256_div_pd(num, denom);
}

/** tanh lanes via exp(-2|x|) with the small-|x| expm1 path blended. */
ADRIAS_AVX2 inline __m256d
tanhLanes(__m256d x)
{
    const __m256d one = _mm256_set1_pd(1.0);
    const __m256d a2 =
        _mm256_mul_pd(_mm256_set1_pd(2.0), absLanes(x));
    const __m256d small =
        _mm256_cmp_pd(a2, _mm256_set1_pd(0.25), _CMP_LE_OQ);

    // Big path: (1-e)/(1+e).  Small lanes' garbage is blended away.
    const __m256d e = expNegLanes(negLanes(a2));
    const __m256d t_big = _mm256_div_pd(_mm256_sub_pd(one, e),
                                        _mm256_add_pd(one, e));

    // Small path: -em1/(2+em1), cancellation-free.
    const __m256d em1 = expm1SmallNegLanes(negLanes(a2));
    const __m256d t_small = _mm256_div_pd(
        negLanes(em1), _mm256_add_pd(_mm256_set1_pd(2.0), em1));

    const __m256d t = _mm256_blendv_pd(t_big, t_small, small);
    // copysign(t, x): magnitude of t, sign bit of x.
    const __m256d sign = _mm256_set1_pd(-0.0);
    return _mm256_or_pd(_mm256_andnot_pd(sign, t),
                        _mm256_and_pd(sign, x));
}

ADRIAS_AVX2 void
expNegBatchAvx2(const double *x, double *out, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4)
        _mm256_storeu_pd(out + i,
                         expNegLanes(_mm256_loadu_pd(x + i)));
    for (; i < n; ++i)
        out[i] = fastmath::expNeg(x[i]);
}

ADRIAS_AVX2 void
sigmoidBatchAvx2(const double *x, double *out, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4)
        _mm256_storeu_pd(out + i,
                         sigmoidLanes(_mm256_loadu_pd(x + i)));
    for (; i < n; ++i)
        out[i] = fastmath::sigmoid(x[i]);
}

ADRIAS_AVX2 void
tanhBatchAvx2(const double *x, double *out, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4)
        _mm256_storeu_pd(out + i, tanhLanes(_mm256_loadu_pd(x + i)));
    for (; i < n; ++i)
        out[i] = fastmath::tanh(x[i]);
}

/**
 * Register-blocked GEMM rows.  Main kernel: 4 output rows × 8 output
 * columns held in eight ymm accumulators across the whole k loop, so
 * the two rhs vector loads per k are shared by four rows — without
 * that sharing the kernel is load-bound (one load per FMA) and large
 * shapes like matmul_384 see almost no vector win.  Remainder rows
 * fall through to a 1-row, 16-wide path.
 *
 * Every output lane is a single FMA chain in increasing k order no
 * matter which path computes it, so results are bitwise identical
 * across the 4-row/1-row split: a row computed inside a batch equals
 * the same row computed alone.
 */
ADRIAS_AVX2 void
gemmRowsAvx2(const double *__restrict lhs,
             const double *__restrict rhs, double *__restrict out,
             std::size_t begin, std::size_t end, std::size_t inner,
             std::size_t width)
{
    std::size_t i = begin;
    for (; i + 4 <= end; i += 4) {
        const double *l0 = lhs + i * inner;
        const double *l1 = l0 + inner;
        const double *l2 = l1 + inner;
        const double *l3 = l2 + inner;
        double *o0 = out + i * width;
        double *o1 = o0 + width;
        double *o2 = o1 + width;
        double *o3 = o2 + width;
        std::size_t j = 0;
        for (; j + 8 <= width; j += 8) {
            __m256d a00 = _mm256_setzero_pd();
            __m256d a01 = _mm256_setzero_pd();
            __m256d a10 = _mm256_setzero_pd();
            __m256d a11 = _mm256_setzero_pd();
            __m256d a20 = _mm256_setzero_pd();
            __m256d a21 = _mm256_setzero_pd();
            __m256d a30 = _mm256_setzero_pd();
            __m256d a31 = _mm256_setzero_pd();
            for (std::size_t k = 0; k < inner; ++k) {
                const double *rr = rhs + k * width + j;
                const __m256d r0 = _mm256_loadu_pd(rr);
                const __m256d r1 = _mm256_loadu_pd(rr + 4);
                __m256d l = _mm256_broadcast_sd(l0 + k);
                a00 = _mm256_fmadd_pd(l, r0, a00);
                a01 = _mm256_fmadd_pd(l, r1, a01);
                l = _mm256_broadcast_sd(l1 + k);
                a10 = _mm256_fmadd_pd(l, r0, a10);
                a11 = _mm256_fmadd_pd(l, r1, a11);
                l = _mm256_broadcast_sd(l2 + k);
                a20 = _mm256_fmadd_pd(l, r0, a20);
                a21 = _mm256_fmadd_pd(l, r1, a21);
                l = _mm256_broadcast_sd(l3 + k);
                a30 = _mm256_fmadd_pd(l, r0, a30);
                a31 = _mm256_fmadd_pd(l, r1, a31);
            }
            _mm256_storeu_pd(o0 + j, a00);
            _mm256_storeu_pd(o0 + j + 4, a01);
            _mm256_storeu_pd(o1 + j, a10);
            _mm256_storeu_pd(o1 + j + 4, a11);
            _mm256_storeu_pd(o2 + j, a20);
            _mm256_storeu_pd(o2 + j + 4, a21);
            _mm256_storeu_pd(o3 + j, a30);
            _mm256_storeu_pd(o3 + j + 4, a31);
        }
        for (; j + 4 <= width; j += 4) {
            __m256d a0 = _mm256_setzero_pd();
            __m256d a1 = _mm256_setzero_pd();
            __m256d a2 = _mm256_setzero_pd();
            __m256d a3 = _mm256_setzero_pd();
            for (std::size_t k = 0; k < inner; ++k) {
                const __m256d r0 = _mm256_loadu_pd(rhs + k * width + j);
                a0 = _mm256_fmadd_pd(_mm256_broadcast_sd(l0 + k), r0,
                                     a0);
                a1 = _mm256_fmadd_pd(_mm256_broadcast_sd(l1 + k), r0,
                                     a1);
                a2 = _mm256_fmadd_pd(_mm256_broadcast_sd(l2 + k), r0,
                                     a2);
                a3 = _mm256_fmadd_pd(_mm256_broadcast_sd(l3 + k), r0,
                                     a3);
            }
            _mm256_storeu_pd(o0 + j, a0);
            _mm256_storeu_pd(o1 + j, a1);
            _mm256_storeu_pd(o2 + j, a2);
            _mm256_storeu_pd(o3 + j, a3);
        }
        for (; j < width; ++j) {
            double s0 = 0.0;
            double s1 = 0.0;
            double s2 = 0.0;
            double s3 = 0.0;
            for (std::size_t k = 0; k < inner; ++k) {
                const double r = rhs[k * width + j];
                s0 += l0[k] * r;
                s1 += l1[k] * r;
                s2 += l2[k] * r;
                s3 += l3[k] * r;
            }
            o0[j] = s0;
            o1[j] = s1;
            o2[j] = s2;
            o3[j] = s3;
        }
    }
    for (; i < end; ++i) {
        const double *lhs_row = lhs + i * inner;
        double *out_row = out + i * width;
        std::size_t j = 0;
        for (; j + 16 <= width; j += 16) {
            __m256d acc0 = _mm256_setzero_pd();
            __m256d acc1 = _mm256_setzero_pd();
            __m256d acc2 = _mm256_setzero_pd();
            __m256d acc3 = _mm256_setzero_pd();
            for (std::size_t k = 0; k < inner; ++k) {
                const __m256d l = _mm256_broadcast_sd(lhs_row + k);
                const double *rr = rhs + k * width + j;
                acc0 = _mm256_fmadd_pd(l, _mm256_loadu_pd(rr), acc0);
                acc1 =
                    _mm256_fmadd_pd(l, _mm256_loadu_pd(rr + 4), acc1);
                acc2 =
                    _mm256_fmadd_pd(l, _mm256_loadu_pd(rr + 8), acc2);
                acc3 = _mm256_fmadd_pd(l, _mm256_loadu_pd(rr + 12),
                                       acc3);
            }
            _mm256_storeu_pd(out_row + j, acc0);
            _mm256_storeu_pd(out_row + j + 4, acc1);
            _mm256_storeu_pd(out_row + j + 8, acc2);
            _mm256_storeu_pd(out_row + j + 12, acc3);
        }
        for (; j + 4 <= width; j += 4) {
            __m256d acc = _mm256_setzero_pd();
            for (std::size_t k = 0; k < inner; ++k)
                acc = _mm256_fmadd_pd(
                    _mm256_broadcast_sd(lhs_row + k),
                    _mm256_loadu_pd(rhs + k * width + j), acc);
            _mm256_storeu_pd(out_row + j, acc);
        }
        for (; j < width; ++j) {
            double acc = 0.0;
            for (std::size_t k = 0; k < inner; ++k)
                acc += lhs_row[k] * rhs[k * width + j];
            out_row[j] = acc;
        }
    }
}

ADRIAS_AVX2 void
lstmGateRowsAvx2(const double *__restrict za,
                 const double *__restrict zb,
                 const double *__restrict bias,
                 double *__restrict cell,
                 double *__restrict hidden_out, std::size_t begin,
                 std::size_t end, std::size_t hidden)
{
    const std::size_t gate_width = 4 * hidden;
    for (std::size_t r = begin; r < end; ++r) {
        const double *zar = za + r * gate_width;
        const double *zbr = zb + r * gate_width;
        double *crow = cell + r * hidden;
        double *hrow = hidden_out + r * hidden;
        std::size_t c = 0;
        for (; c + 4 <= hidden; c += 4) {
            // z = (za + zb) + bias per gate block (i/f/g/o stacked
            // H-wide); a lambda would lose the target attribute, so
            // the four blocks are spelled out.
            const std::size_t oi = c;
            const std::size_t of = hidden + c;
            const std::size_t og = 2 * hidden + c;
            const std::size_t oo = 3 * hidden + c;
            const __m256d zi = _mm256_add_pd(
                _mm256_add_pd(_mm256_loadu_pd(zar + oi),
                              _mm256_loadu_pd(zbr + oi)),
                _mm256_loadu_pd(bias + oi));
            const __m256d zf = _mm256_add_pd(
                _mm256_add_pd(_mm256_loadu_pd(zar + of),
                              _mm256_loadu_pd(zbr + of)),
                _mm256_loadu_pd(bias + of));
            const __m256d zg = _mm256_add_pd(
                _mm256_add_pd(_mm256_loadu_pd(zar + og),
                              _mm256_loadu_pd(zbr + og)),
                _mm256_loadu_pd(bias + og));
            const __m256d zo = _mm256_add_pd(
                _mm256_add_pd(_mm256_loadu_pd(zar + oo),
                              _mm256_loadu_pd(zbr + oo)),
                _mm256_loadu_pd(bias + oo));
            const __m256d gi = sigmoidLanes(zi);
            const __m256d gf = sigmoidLanes(zf);
            const __m256d gg = tanhLanes(zg);
            const __m256d go = sigmoidLanes(zo);
            const __m256d cv =
                _mm256_fmadd_pd(gf, _mm256_loadu_pd(crow + c),
                                _mm256_mul_pd(gi, gg));
            const __m256d tc = tanhLanes(cv);
            _mm256_storeu_pd(crow + c, cv);
            _mm256_storeu_pd(hrow + c, _mm256_mul_pd(go, tc));
        }
        for (; c < hidden; ++c) {
            const double zi = (zar[c] + zbr[c]) + bias[c];
            const double zf =
                (zar[hidden + c] + zbr[hidden + c]) + bias[hidden + c];
            const double zg = (zar[2 * hidden + c] +
                               zbr[2 * hidden + c]) +
                              bias[2 * hidden + c];
            const double zo = (zar[3 * hidden + c] +
                               zbr[3 * hidden + c]) +
                              bias[3 * hidden + c];
            const double gi = fastmath::sigmoid(zi);
            const double gf = fastmath::sigmoid(zf);
            const double gg = fastmath::tanh(zg);
            const double go = fastmath::sigmoid(zo);
            const double cv = gf * crow[c] + gi * gg;
            crow[c] = cv;
            hrow[c] = go * fastmath::tanh(cv);
        }
    }
}

} // namespace

#endif // ADRIAS_SIMD_X86

bool
vectorTierAvailable()
{
#if ADRIAS_SIMD_X86
    static const bool have = __builtin_cpu_supports("avx2") &&
                             __builtin_cpu_supports("fma");
    return have;
#else
    return false;
#endif
}

namespace simd
{

#if ADRIAS_SIMD_X86

void
expNegBatch(const double *x, double *out, std::size_t n)
{
    expNegBatchAvx2(x, out, n);
}

void
sigmoidBatch(const double *x, double *out, std::size_t n)
{
    sigmoidBatchAvx2(x, out, n);
}

void
tanhBatch(const double *x, double *out, std::size_t n)
{
    tanhBatchAvx2(x, out, n);
}

void
gemmRows(const double *lhs, const double *rhs, double *out,
         std::size_t begin, std::size_t end, std::size_t inner,
         std::size_t width)
{
    gemmRowsAvx2(lhs, rhs, out, begin, end, inner, width);
}

void
lstmGateRows(const double *za, const double *zb, const double *bias,
             double *cell, double *hidden_out, std::size_t begin,
             std::size_t end, std::size_t hidden)
{
    lstmGateRowsAvx2(za, zb, bias, cell, hidden_out, begin, end, hidden);
}

#else // !ADRIAS_SIMD_X86: the effective tier is always Scalar.

void
expNegBatch(const double *, double *, std::size_t)
{
    panic("simd::expNegBatch: vector tier not compiled in");
}

void
sigmoidBatch(const double *, double *, std::size_t)
{
    panic("simd::sigmoidBatch: vector tier not compiled in");
}

void
tanhBatch(const double *, double *, std::size_t)
{
    panic("simd::tanhBatch: vector tier not compiled in");
}

void
gemmRows(const double *, const double *, double *, std::size_t,
         std::size_t, std::size_t, std::size_t)
{
    panic("simd::gemmRows: vector tier not compiled in");
}

void
lstmGateRows(const double *, const double *, const double *, double *,
             double *, std::size_t, std::size_t, std::size_t)
{
    panic("simd::lstmGateRows: vector tier not compiled in");
}

#endif // ADRIAS_SIMD_X86

} // namespace simd

} // namespace adrias::ml
