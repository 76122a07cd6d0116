/**
 * @file
 * Tolerance-based equivalence suite for the vector kernel tier
 * (DESIGN.md §16, ctest -L simd): the AVX2 GEMM and fused-LSTM gate
 * loop must match the bitwise scalar oracle within a small ulp budget
 * — never bitwise, because FMA contraction legitimately changes
 * last-ulp rounding.  The vector kernels must
 * additionally be row-local against themselves (a row computed inside
 * a batch is bitwise the same row computed alone), and the dispatch
 * layer must degrade gracefully when the tier is unavailable.  On
 * hosts without AVX2 (or -DADRIAS_SIMD=OFF builds) the vector tier IS
 * the scalar path, every comparison is exact, and this whole suite
 * doubles as the graceful-fallback proof.
 */

#include <cmath>
#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

#include "common/float_compare.hh"
#include "common/rng.hh"
#include "ml/lstm.hh"
#include "ml/matrix.hh"
#include "ml/simd.hh"

namespace
{

using adrias::Rng;
using adrias::UlpStats;
using adrias::ml::KernelTier;
using adrias::ml::kernelTier;
using adrias::ml::kernelTierName;
using adrias::ml::Lstm;
using adrias::ml::Matrix;
using adrias::ml::parseKernelTier;
using adrias::ml::ScopedKernelTier;
using adrias::ml::setKernelTier;
using adrias::ml::vectorTierAvailable;

/** Ulp budget for vector-vs-scalar on composite kernels.  Individual
 *  transcendentals agree within ~2 ulps; GEMM/LSTM compose several
 *  rounding differences, so the budget is looser but still tiny. */
constexpr std::uint64_t kUlpBudget = 64;

/** Absolute floor rescuing near-zero outputs (cancellation turns an
 *  ulp-sized absolute difference into a huge ulp distance). */
constexpr double kAbsFloor = 1e-12;

class SimdEquivalenceTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        savedTier = kernelTier();
    }

    void
    TearDown() override
    {
        setKernelTier(savedTier);
    }

    KernelTier savedTier = KernelTier::Scalar;
};

Matrix
randomMatrix(Rng &rng, std::size_t rows, std::size_t cols)
{
    Matrix m(rows, cols);
    for (double &value : m.raw())
        value = rng.uniform(-2.0, 2.0);
    // Exact zeros exercise the scalar zero-skip (which the vector
    // GEMM deliberately drops — the results must still agree).
    for (double &value : m.raw())
        if (rng.bernoulli(0.1))
            value = 0.0;
    return m;
}

std::vector<Matrix>
randomSequence(Rng &rng, std::size_t steps, std::size_t batch,
               std::size_t input)
{
    std::vector<Matrix> sequence;
    sequence.reserve(steps);
    for (std::size_t t = 0; t < steps; ++t)
        sequence.push_back(randomMatrix(rng, batch, input));
    return sequence;
}

void
expectWithinUlps(const Matrix &oracle, const Matrix &vec,
                 const char *what)
{
    ASSERT_EQ(oracle.rows(), vec.rows()) << what;
    ASSERT_EQ(oracle.cols(), vec.cols()) << what;
    UlpStats stats;
    const auto &a = oracle.raw();
    const auto &b = vec.raw();
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (std::fabs(a[i] - b[i]) <= kAbsFloor)
            continue;
        stats.add(a[i], b[i]);
    }
    EXPECT_TRUE(stats.within(kUlpBudget))
        << what << ": worst " << stats.maxUlps << " ulps ("
        << stats.worstA << " vs " << stats.worstB << "), max abs diff "
        << stats.maxAbsDiff;
}

void
expectBitwise(const Matrix &expected, const Matrix &actual,
              const char *what)
{
    ASSERT_EQ(expected.rows(), actual.rows()) << what;
    ASSERT_EQ(expected.cols(), actual.cols()) << what;
    ASSERT_EQ(expected.raw(), actual.raw()) << what;
}

// ---------------------------------------------------------------------
// Dispatch layer.
// ---------------------------------------------------------------------

TEST(SimdDispatch, ParseKernelTier)
{
    ASSERT_TRUE(parseKernelTier("scalar").has_value());
    EXPECT_EQ(*parseKernelTier("scalar"), KernelTier::Scalar);
    ASSERT_TRUE(parseKernelTier("vector").has_value());
    EXPECT_EQ(*parseKernelTier("vector"), KernelTier::Vector);
    EXPECT_FALSE(parseKernelTier("").has_value());
    EXPECT_FALSE(parseKernelTier("Vector").has_value());
    EXPECT_FALSE(parseKernelTier("avx2").has_value());
}

TEST(SimdDispatch, TierNames)
{
    EXPECT_STREQ(kernelTierName(KernelTier::Scalar), "scalar");
    EXPECT_STREQ(kernelTierName(KernelTier::Vector), "vector");
}

TEST(SimdDispatch, ScopedTierRestores)
{
    const KernelTier before = kernelTier();
    {
        const ScopedKernelTier pin(KernelTier::Vector);
        EXPECT_EQ(kernelTier(), KernelTier::Vector);
        {
            const ScopedKernelTier nested(KernelTier::Scalar);
            EXPECT_EQ(kernelTier(), KernelTier::Scalar);
        }
        EXPECT_EQ(kernelTier(), KernelTier::Vector);
    }
    EXPECT_EQ(kernelTier(), before);
}

TEST(SimdDispatch, GracefulFallback)
{
    // The effective tier never exceeds what the build/CPU provides:
    // requesting Vector on a host (or build) without it silently runs
    // Scalar — the tree never crashes or wedges.
    const ScopedKernelTier pin(KernelTier::Vector);
    if (vectorTierAvailable()) {
        EXPECT_EQ(adrias::ml::effectiveKernelTier(), KernelTier::Vector);
    } else {
        EXPECT_EQ(adrias::ml::effectiveKernelTier(), KernelTier::Scalar);
        // And kernels still produce the scalar tier's exact results.
        Rng rng(0xFA11);
        const Matrix a = randomMatrix(rng, 9, 17);
        const Matrix b = randomMatrix(rng, 17, 21);
        const Matrix vec = a.matmul(b);
        Matrix ref;
        {
            const ScopedKernelTier scalar(KernelTier::Scalar);
            ref = a.matmul(b);
        }
        expectBitwise(ref, vec, "fallback matmul");
    }
}

TEST(SimdDispatch, ScalarTierUnaffectedByRequest)
{
    // Requesting Scalar always runs Scalar, available or not.
    const ScopedKernelTier pin(KernelTier::Scalar);
    EXPECT_EQ(adrias::ml::effectiveKernelTier(), KernelTier::Scalar);
}

// ---------------------------------------------------------------------
// GEMM.
// ---------------------------------------------------------------------

TEST_F(SimdEquivalenceTest, GemmWithinUlpsAcrossShapes)
{
    Rng rng(0x51DD);
    const std::size_t dims[][3] = {
        {1, 1, 1},    {3, 5, 4},    {7, 13, 16},  {8, 24, 96},
        {33, 17, 40}, {5, 96, 15},  {32, 96, 96}, {2, 7, 19},
    };
    for (const auto &d : dims) {
        const Matrix a = randomMatrix(rng, d[0], d[1]);
        const Matrix b = randomMatrix(rng, d[1], d[2]);
        Matrix ref;
        {
            const ScopedKernelTier scalar(KernelTier::Scalar);
            ref = a.matmul(b);
        }
        const ScopedKernelTier vec(KernelTier::Vector);
        expectWithinUlps(ref, a.matmul(b), "vector matmul");
    }
}

TEST_F(SimdEquivalenceTest, VectorGemmRowsMatchRowsComputedAlone)
{
    // Vector-vs-vector is bitwise across the kernel's 4-row/1-row
    // split: 41 rows run ten 4-row blocks plus one 1-row remainder,
    // and each must equal the same row multiplied on its own.
    Rng rng(0x51DE);
    const Matrix a = randomMatrix(rng, 41, 23);
    const Matrix b = randomMatrix(rng, 23, 57);
    const ScopedKernelTier vec(KernelTier::Vector);
    const Matrix batch = a.matmul(b);
    for (std::size_t r = 0; r < a.rows(); ++r)
        expectBitwise(batch.row(r), a.row(r).matmul(b),
                      "vector matmul row alone");
}

// ---------------------------------------------------------------------
// Fused LSTM forward (inference).
// ---------------------------------------------------------------------

struct LstmShape
{
    std::size_t steps, batch, input, hidden;
};

constexpr LstmShape kShapes[] = {
    {1, 1, 1, 1},   {3, 2, 5, 4},    {5, 7, 3, 13},
    {2, 1, 9, 6},   {12, 32, 7, 24}, {4, 3, 16, 5},
};

Lstm
makeLstm(const LstmShape &shape, unsigned seed)
{
    Rng rng(seed);
    return Lstm(shape.input, shape.hidden, rng);
}

TEST_F(SimdEquivalenceTest, LstmForwardWithinUlps)
{
    Rng rng(0x51E0);
    for (const auto &shape : kShapes) {
        const auto sequence =
            randomSequence(rng, shape.steps, shape.batch, shape.input);
        std::vector<Matrix> ref;
        {
            const ScopedKernelTier scalar(KernelTier::Scalar);
            Lstm lstm = makeLstm(shape, 8001);
            lstm.setInference(true);
            ref = lstm.forwardSequence(sequence);
        }
        const ScopedKernelTier vec(KernelTier::Vector);
        Lstm lstm = makeLstm(shape, 8001);
        lstm.setInference(true);
        const auto got = lstm.forwardSequence(sequence);
        ASSERT_EQ(ref.size(), got.size());
        for (std::size_t t = 0; t < ref.size(); ++t)
            expectWithinUlps(ref[t], got[t],
                             "vector LSTM inference forward");
    }
}

TEST_F(SimdEquivalenceTest, VectorLstmRowsMatchRowsComputedAlone)
{
    // The vector GEMMs and gate rows are row-local, so each sequence
    // of a batch forwards bitwise the same as when it runs alone.
    const LstmShape shape{6, 32, 7, 24};
    Rng rng(0x51E1);
    const auto sequence =
        randomSequence(rng, shape.steps, shape.batch, shape.input);
    const ScopedKernelTier vec(KernelTier::Vector);
    Lstm lstm = makeLstm(shape, 8002);
    lstm.setInference(true);
    const auto batch = lstm.forwardSequence(sequence);
    ASSERT_EQ(batch.size(), shape.steps);
    for (std::size_t r = 0; r < shape.batch; ++r) {
        std::vector<Matrix> alone;
        for (const Matrix &step : sequence)
            alone.push_back(step.row(r));
        const auto got = lstm.forwardSequence(alone);
        ASSERT_EQ(got.size(), shape.steps);
        for (std::size_t t = 0; t < shape.steps; ++t)
            expectBitwise(batch[t].row(r), got[t],
                          "vector LSTM forward row alone");
    }
}

TEST_F(SimdEquivalenceTest, TrainingForwardStaysOnScalarGateKernel)
{
    // The vector gate kernel is inference-only (it writes no caches).
    // A training-mode forward under the vector tier runs the scalar
    // gate loop — only the GEMMs vectorize — so backward still works
    // and its gradients agree with the scalar tier within ulps.
    const LstmShape shape{4, 6, 5, 9};
    Rng rng(0x51E2);
    const auto sequence =
        randomSequence(rng, shape.steps, shape.batch, shape.input);
    const auto grad_hidden =
        randomSequence(rng, shape.steps, shape.batch, shape.hidden);

    std::vector<Matrix> ref_grads;
    {
        const ScopedKernelTier scalar(KernelTier::Scalar);
        Lstm lstm = makeLstm(shape, 8003);
        lstm.forwardSequence(sequence);
        for (const Matrix &g : lstm.backwardSequence(grad_hidden))
            ref_grads.push_back(g);
    }
    const ScopedKernelTier vec(KernelTier::Vector);
    Lstm lstm = makeLstm(shape, 8003);
    lstm.forwardSequence(sequence);
    const auto got = lstm.backwardSequence(grad_hidden);
    ASSERT_EQ(ref_grads.size(), got.size());
    for (std::size_t t = 0; t < got.size(); ++t)
        expectWithinUlps(ref_grads[t], got[t],
                         "training grads under vector tier");
}

} // namespace
