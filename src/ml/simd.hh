/**
 * @file
 * SIMD portability layer and the kernel-tier knob (DESIGN.md §16).
 *
 * Two kernel tiers exist for the ML hot path:
 *
 *  - KernelTier::Scalar (the default): the bitwise-deterministic
 *    kernels in matrix.cc / lstm.cc / fastmath.hh.  Golden tests,
 *    checkpoints and training all stand on this tier; its results are
 *    reproducible bit for bit across machines and thread counts.
 *
 *  - KernelTier::Vector: AVX2+FMA batch kernels (simd_kernels.cc)
 *    for the transcendentals, the GEMM and the fused LSTM gate loop.
 *    FMA contraction and register blocking legitimately change
 *    last-ulp rounding, so this tier is *tolerance-checked* against
 *    the scalar oracle (ctest -L simd), never bitwise.  It is still
 *    run-to-run deterministic on a fixed build and host.
 *
 * Dispatch rules: the vector tier only ever runs when (a) it was
 * compiled in (cmake -DADRIAS_SIMD=ON, the default), (b) the CPU
 * reports AVX2+FMA at runtime, and (c) a caller asked for it — via
 * setKernelTier(), ScopedKernelTier, or the ADRIAS_KERNEL_TIER=vector
 * environment knob.  When any of these fail, effectiveKernelTier()
 * degrades to Scalar and every kernel runs the default path, so the
 * tree builds and runs unchanged on non-AVX2 hosts.
 *
 * Raw intrinsics (`immintrin.h`, `_mm256_*`) are confined to
 * src/ml/simd* by the `raw-intrinsics` lint rule; generic code calls
 * the batch entry points below.
 *
 * Specials contract: the vector transcendentals agree with the scalar
 * ones *exactly* on NaN, ±0, ±inf, denormals and the −708 underflow
 * cutoff (mask-blended, not approximated); only finite interior
 * values may differ, within ulps (tests/ml/test_fastmath_edges.cc).
 */

#ifndef ADRIAS_ML_SIMD_HH
#define ADRIAS_ML_SIMD_HH

#include <cstddef>
#include <optional>
#include <string>

namespace adrias::ml
{

/** Which kernel implementations the ML hot path runs. */
enum class KernelTier
{
    Scalar, ///< bitwise-deterministic reference kernels (default)
    Vector, ///< AVX2+FMA batch kernels, tolerance-checked
};

/**
 * The requested process-wide tier.  Initialized once from the
 * ADRIAS_KERNEL_TIER environment knob ("scalar" | "vector"; unset or
 * unrecognized means Scalar), then owned by setKernelTier().
 */
KernelTier kernelTier();

/**
 * Replace the requested tier.  Not synchronized: call only from
 * single-threaded setup code.
 */
void setKernelTier(KernelTier tier);

/**
 * The tier the kernels will actually run: the requested tier demoted
 * to Scalar when the vector tier is compiled out or the CPU lacks
 * AVX2/FMA.  This is the only predicate the kernel dispatch sites
 * consult.
 */
KernelTier effectiveKernelTier();

/** True when the vector tier is compiled in and the CPU supports it. */
bool vectorTierAvailable();

/** Parse a tier name ("scalar" / "vector"); nullopt when unknown. */
std::optional<KernelTier> parseKernelTier(const std::string &text);

/** Tier name for logs and bench rows ("scalar" / "vector"). */
const char *kernelTierName(KernelTier tier);

/**
 * RAII tier override — the hook benches, equivalence tests and the
 * tier-pinned serving/training paths use to run one computation on a
 * specific tier.  Same single-threaded-setup contract as
 * setKernelTier().
 */
class ScopedKernelTier
{
  public:
    explicit ScopedKernelTier(KernelTier tier) : saved(kernelTier())
    {
        setKernelTier(tier);
    }

    ~ScopedKernelTier() { setKernelTier(saved); }

    ScopedKernelTier(const ScopedKernelTier &) = delete;
    ScopedKernelTier &operator=(const ScopedKernelTier &) = delete;

  private:
    KernelTier saved;
};

namespace simd
{

/**
 * Batch transcendentals over n doubles (out may alias x).  On the
 * vector tier these run the AVX2 polynomial kernels; otherwise they
 * evaluate the scalar fastmath functions element by element, so the
 * scalar tier's results are bitwise unchanged by routing through the
 * batch entry points.
 */
void expNegBatch(const double *x, double *out, std::size_t n);
void sigmoidBatch(const double *x, double *out, std::size_t n);
void tanhBatch(const double *x, double *out, std::size_t n);

/**
 * Vector-tier GEMM rows: out[i] = lhs[i] * rhs for i in [begin, end),
 * where lhs is (rows x inner), rhs (inner x width), out (rows x
 * width) and the out rows are pre-zeroed.  Register-blocked over j
 * (16-wide FMA accumulators) with each output element's
 * k-accumulation in increasing k order — the same per-element order
 * as the scalar kernel, differing only by FMA contraction and the
 * dropped exact-zero sparsity skip.  Matrix::matmulInto calls it
 * once over [0, rows).  Only call on the vector tier.
 */
void gemmRows(const double *lhs, const double *rhs, double *out,
              std::size_t begin, std::size_t end, std::size_t inner,
              std::size_t width);

/**
 * Vector-tier fused LSTM gate rows for the inference forward pass:
 * for rows [begin, end), computes z = (za + zb) + bias per gate,
 * the sigmoid/tanh gates, the in-place cell update and the hidden
 * output — the vectorized twin of the scalar gate loop in
 * Lstm::forwardFused (4-wide over the hidden index, scalar fastmath
 * tail).  Layouts match the fused workspaces: za/zb are
 * (rows x 4*hidden) row-major, cell/hidden_out (rows x hidden).
 * Only call on the vector tier.
 */
void lstmGateRows(const double *za, const double *zb,
                  const double *bias, double *cell, double *hidden_out,
                  std::size_t begin, std::size_t end,
                  std::size_t hidden);

} // namespace simd

} // namespace adrias::ml

#endif // ADRIAS_ML_SIMD_HH
