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
 *    Its hot loops are built twice from one source
 *    (ADRIAS_SCALAR_CLONES below): a baseline body and an AVX2 body
 *    without FMA, one of which the loader's ifunc resolver binds for
 *    the whole process.  Both run the same IEEE operations in the same
 *    order, so they return the same bits (DESIGN.md §11.1).
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
 * environment knob.  effectiveKernelTier() folds the three, demoting
 * Vector to Scalar when (a) or (b) fails, so the tree builds and runs
 * unchanged on non-AVX2 hosts.
 *
 * One layer picks a kernel: effectiveKernelTier() is read only by the
 * two kernels that have a vector twin, Matrix::matmulInto and the
 * inference gate loop of Lstm::forwardFused.  Nothing above src/ml
 * chooses a tier per call; a caller that wants one computation on a
 * specific tier pins it with ScopedKernelTier, and training pins
 * Scalar in SystemStateModel::train and PerformanceModel::fitLoop.
 * The simd:: entry points below are AVX2 bodies only — there is no
 * scalar copy behind them — so call them only when
 * vectorTierAvailable() holds; on a build without the vector tier
 * they panic.
 *
 * Raw intrinsics (`immintrin.h`, `_mm256_*`) are confined to
 * src/ml/simd* by the `raw-intrinsics` lint rule.
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

#if !defined(ADRIAS_SIMD_ENABLED)
#define ADRIAS_SIMD_ENABLED 1
#endif

/** 1 when the AVX2 code paths are compiled: -DADRIAS_SIMD=ON, x86-64,
 *  GCC or Clang. */
#if ADRIAS_SIMD_ENABLED && defined(__x86_64__) && \
    (defined(__GNUC__) || defined(__clang__))
#define ADRIAS_SIMD_X86 1
#else
#define ADRIAS_SIMD_X86 0
#endif

/**
 * Marks a scalar-tier kernel (a whole loop nest, so the indirect call
 * is paid once per kernel call, not per row) to be compiled twice from
 * the same source: the baseline ISA and AVX2 *without* FMA, chosen at
 * load time by an ifunc resolver.  The AVX2 body may only widen the
 * loops to 4 lanes: with no FMA there is nothing to contract a mul+add
 * into, and the translation units that use it build with
 * -ffp-contract=off and without -ffast-math, so no operation is fused
 * or reassociated and both bodies return the same bits.  The
 * `isa-clones` lint rule keeps the clone list at "avx2" and "default".
 * Without the AVX2 paths (-DADRIAS_SIMD=OFF, non-x86) only the
 * baseline body is built.
 */
#if ADRIAS_SIMD_X86
#define ADRIAS_SCALAR_CLONES \
    __attribute__((target_clones("avx2", "default")))
#else
#define ADRIAS_SCALAR_CLONES
#endif

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
 * AVX2/FMA.  Read only at the two kernel dispatch sites (matrix.cc,
 * lstm.cc); the `kernel-tier` lint rule keeps it there.
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
 * two training entry points use to run one computation on a specific
 * tier.  Same single-threaded-setup contract as
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
 * AVX2 batch transcendentals over n doubles (out may alias x): the
 * 4-lane polynomial kernels, with the scalar fastmath functions on the
 * n % 4 tail.  Requires vectorTierAvailable().
 */
void expNegBatch(const double *x, double *out, std::size_t n);
void sigmoidBatch(const double *x, double *out, std::size_t n);
void tanhBatch(const double *x, double *out, std::size_t n);

/**
 * Vector-tier GEMM rows: out[i] = lhs[i] * rhs for i in [begin, end),
 * where lhs is (rows x inner), rhs (inner x width), out (rows x
 * width); the out rows are overwritten.  Register-blocked over j
 * (16-wide FMA accumulators) with each output element's
 * k-accumulation in increasing k order — the same per-element order
 * as the scalar kernel, differing only by FMA contraction and the
 * dropped exact-zero sparsity skip.  Matrix::matmulInto calls it
 * once over [0, rows).  Requires vectorTierAvailable().
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
 * Requires vectorTierAvailable().
 */
void lstmGateRows(const double *za, const double *zb,
                  const double *bias, double *cell, double *hidden_out,
                  std::size_t begin, std::size_t end,
                  std::size_t hidden);

} // namespace simd

} // namespace adrias::ml

#endif // ADRIAS_ML_SIMD_HH
