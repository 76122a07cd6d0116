/**
 * @file
 * Edge-domain regression tests for the fastmath transcendentals and
 * their AVX2 batch twins (DESIGN.md §16): NaN, signed zeros,
 * infinities, denormals and the −708 underflow cutoff.  The specials
 * contract says the vector kernels must agree with the scalar
 * functions bit for bit on every special (NaN-ness for NaN — payloads
 * may differ); only finite interior values are allowed to drift, and
 * then only within ulps.  The simd:: entry points are vector-only, so
 * the tests that call them skip where the vector tier is unavailable.
 */

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/float_compare.hh"
#include "ml/fastmath.hh"
#include "ml/simd.hh"

namespace adrias::ml
{
namespace
{

constexpr double kInf = std::numeric_limits<double>::infinity();
const double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kDenormMin = std::numeric_limits<double>::denorm_min();

/** Bitwise equality (distinguishes -0.0 from +0.0). */
bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(a)) == 0;
}

/** The special inputs every function is probed at. */
std::vector<double>
specialInputs()
{
    return {
        0.0,
        -0.0,
        kNan,
        kInf,
        -kInf,
        kDenormMin,
        -kDenormMin,
        1e-310,  // denormal
        -1e-310, // denormal
        // The expNeg underflow cutoff and its neighborhood.
        -708.0,
        std::nextafter(-708.0, 0.0),
        std::nextafter(-708.0, -kInf),
        -709.0,
        -1e308,
        std::numeric_limits<double>::lowest(),
    };
}

/** Skip message for the tests that call the vector-only simd:: API. */
constexpr const char *kNoVectorTier =
    "vector tier unavailable on this build or host";

/** Run one batch entry point on one input (the scalar tail path). */
double
batchOne(void (*batch)(const double *, double *, std::size_t), double x)
{
    double out = 0.0;
    batch(&x, &out, 1);
    return out;
}

/**
 * Vector-lane variant: feed the input through a 4-wide batch so the
 * value actually travels the AVX2 lane path, not the scalar tail.
 */
double
batchLane(void (*batch)(const double *, double *, std::size_t), double x)
{
    const double in[4] = {x, x, x, x};
    double out[4] = {};
    batch(in, out, 4);
    // All four lanes saw the same input, so they must agree.
    EXPECT_TRUE(sameBits(out[0], out[1]) || (std::isnan(out[0]) &&
                                             std::isnan(out[1])));
    EXPECT_TRUE(sameBits(out[0], out[3]) || (std::isnan(out[0]) &&
                                             std::isnan(out[3])));
    return out[0];
}

/** Assert scalar/vector agreement on one special value. */
void
expectSpecialAgreement(
    const char *name,
    void (*batch)(const double *, double *, std::size_t),
    double (*scalar)(double), double x)
{
    const double ref = scalar(x);
    for (const double got : {batchOne(batch, x), batchLane(batch, x)}) {
        if (std::isnan(ref)) {
            EXPECT_TRUE(std::isnan(got))
                << name << "(" << x << "): expected NaN, got " << got;
        } else {
            EXPECT_TRUE(sameBits(ref, got))
                << name << "(" << x << "): scalar " << ref
                << " vs " << got;
        }
    }
}

// ---------------------------------------------------------------------
// Scalar oracle semantics at the edges (regression-pins the scalar
// functions themselves, independent of any vector tier).
// ---------------------------------------------------------------------

TEST(FastmathEdges, ScalarExpNegSpecials)
{
    EXPECT_EQ(fastmath::expNeg(0.0), 1.0);
    EXPECT_EQ(fastmath::expNeg(-0.0), 1.0);
    // At and below the cutoff: exact +0.0.
    EXPECT_TRUE(sameBits(fastmath::expNeg(-708.0), 0.0));
    EXPECT_TRUE(sameBits(fastmath::expNeg(-709.0), 0.0));
    EXPECT_TRUE(sameBits(fastmath::expNeg(-kInf), 0.0));
    EXPECT_TRUE(
        sameBits(fastmath::expNeg(std::nextafter(-708.0, -kInf)), 0.0));
    // Just above the cutoff: small but positive.
    const double above = fastmath::expNeg(std::nextafter(-708.0, 0.0));
    EXPECT_GT(above, 0.0);
    EXPECT_LT(above, 1e-300);
    // NaN propagates.
    EXPECT_TRUE(std::isnan(fastmath::expNeg(kNan)));
    // Denormal inputs: exp(-eps) rounds to 1.0.
    EXPECT_EQ(fastmath::expNeg(-kDenormMin), 1.0);
    EXPECT_EQ(fastmath::expNeg(-1e-310), 1.0);
}

TEST(FastmathEdges, ScalarSigmoidSpecials)
{
    EXPECT_EQ(fastmath::sigmoid(0.0), 0.5);
    EXPECT_EQ(fastmath::sigmoid(-0.0), 0.5);
    EXPECT_EQ(fastmath::sigmoid(kInf), 1.0);
    EXPECT_TRUE(sameBits(fastmath::sigmoid(-kInf), 0.0));
    EXPECT_TRUE(std::isnan(fastmath::sigmoid(kNan)));
    EXPECT_EQ(fastmath::sigmoid(0.5) + fastmath::sigmoid(-0.5), 1.0);
    // Deep saturation underflows to exactly 0 / saturates to exactly 1.
    EXPECT_TRUE(sameBits(fastmath::sigmoid(-1e308), 0.0));
    EXPECT_EQ(fastmath::sigmoid(1e308), 1.0);
    EXPECT_EQ(fastmath::sigmoid(kDenormMin), 0.5);
}

TEST(FastmathEdges, ScalarTanhSpecials)
{
    // Signed zero preserved (copysign path).
    EXPECT_TRUE(sameBits(fastmath::tanh(0.0), 0.0));
    EXPECT_TRUE(sameBits(fastmath::tanh(-0.0), -0.0));
    EXPECT_EQ(fastmath::tanh(kInf), 1.0);
    EXPECT_EQ(fastmath::tanh(-kInf), -1.0);
    EXPECT_TRUE(std::isnan(fastmath::tanh(kNan)));
    // Saturation.
    EXPECT_EQ(fastmath::tanh(1e308), 1.0);
    EXPECT_EQ(fastmath::tanh(-1e308), -1.0);
    // tanh(x) ~= x for tiny x; denormals keep sign and magnitude.
    EXPECT_TRUE(sameBits(fastmath::tanh(kDenormMin), kDenormMin));
    EXPECT_TRUE(sameBits(fastmath::tanh(-kDenormMin), -kDenormMin));
    // Odd symmetry on a representative interior point.
    EXPECT_EQ(fastmath::tanh(0.7), -fastmath::tanh(-0.7));
}

// ---------------------------------------------------------------------
// Scalar/vector agreement on every special, through the batch entry
// points (both the 1-element scalar tail and the 4-wide lane path).
// ---------------------------------------------------------------------

TEST(FastmathEdges, VectorExpNegAgreesOnSpecials)
{
    if (!vectorTierAvailable())
        GTEST_SKIP() << kNoVectorTier;
    for (const double x : specialInputs())
        expectSpecialAgreement("expNeg", simd::expNegBatch,
                               fastmath::expNeg, x);
}

TEST(FastmathEdges, VectorSigmoidAgreesOnSpecials)
{
    if (!vectorTierAvailable())
        GTEST_SKIP() << kNoVectorTier;
    for (const double x : specialInputs())
        expectSpecialAgreement("sigmoid", simd::sigmoidBatch,
                               fastmath::sigmoid, x);
}

TEST(FastmathEdges, VectorTanhAgreesOnSpecials)
{
    if (!vectorTierAvailable())
        GTEST_SKIP() << kNoVectorTier;
    for (const double x : specialInputs())
        expectSpecialAgreement("tanh", simd::tanhBatch,
                               fastmath::tanh, x);
}

// ---------------------------------------------------------------------
// Interior values: the tiers may differ, but only within a few ulps
// (measured through the shared UlpStats tracker the equivalence suites
// use).  A denormal *output* region is also swept for expNeg — scale
// by 2^n there is exact bit arithmetic in both tiers, but the
// polynomial rounding differs.
// ---------------------------------------------------------------------

TEST(FastmathEdges, VectorInteriorWithinUlps)
{
    if (!vectorTierAvailable())
        GTEST_SKIP() << kNoVectorTier;
    struct Case
    {
        const char *name;
        void (*batch)(const double *, double *, std::size_t);
        double (*scalar)(double);
        double lo, hi;
    };
    const std::vector<Case> cases = {
        {"expNeg", simd::expNegBatch, fastmath::expNeg, -707.0, 0.0},
        {"sigmoid", simd::sigmoidBatch, fastmath::sigmoid, -40.0, 40.0},
        {"tanh", simd::tanhBatch, fastmath::tanh, -25.0, 25.0},
    };
    for (const Case &c : cases) {
        std::vector<double> xs;
        const double step = (c.hi - c.lo) / 4099.0;
        for (double x = c.lo; x <= c.hi; x += step)
            xs.push_back(x);
        std::vector<double> got(xs.size());
        c.batch(xs.data(), got.data(), xs.size());
        UlpStats stats;
        for (std::size_t i = 0; i < xs.size(); ++i)
            stats.add(c.scalar(xs[i]), got[i]);
        EXPECT_TRUE(stats.within(4))
            << c.name << ": worst " << stats.maxUlps << " ulps at "
            << stats.worstA << " vs " << stats.worstB;
    }
}

TEST(FastmathEdges, VectorExpNegNearCutoffOutputs)
{
    if (!vectorTierAvailable())
        GTEST_SKIP() << kNoVectorTier;
    // Inputs near the cutoff produce outputs within a few binades of
    // the smallest normal (the −708 guard fires before the output
    // range goes denormal); both tiers must stay finite, non-negative
    // and within ulps of each other right up to the edge.
    std::vector<double> xs;
    for (double x = -707.999; x > -708.0; x -= 1e-7)
        xs.push_back(x);
    for (double x = -700.0; x >= -707.9; x -= 0.1)
        xs.push_back(x);
    std::vector<double> got(xs.size());
    simd::expNegBatch(xs.data(), got.data(), xs.size());
    UlpStats stats;
    for (std::size_t i = 0; i < xs.size(); ++i) {
        EXPECT_GE(got[i], 0.0);
        stats.add(fastmath::expNeg(xs[i]), got[i]);
    }
    EXPECT_TRUE(stats.within(8))
        << "worst " << stats.maxUlps << " ulps at " << stats.worstA
        << " vs " << stats.worstB;
}

// Out-of-place and in-place (aliased) batch calls must agree.
TEST(FastmathEdges, BatchAliasingIsSafe)
{
    if (!vectorTierAvailable())
        GTEST_SKIP() << kNoVectorTier;
    std::vector<double> xs;
    for (double x = -10.0; x <= 10.0; x += 0.37)
        xs.push_back(x);
    std::vector<double> out(xs.size());
    simd::tanhBatch(xs.data(), out.data(), xs.size());
    std::vector<double> inplace = xs;
    simd::tanhBatch(inplace.data(), inplace.data(), inplace.size());
    for (std::size_t i = 0; i < xs.size(); ++i)
        EXPECT_TRUE(sameBits(out[i], inplace[i]));
}

} // namespace
} // namespace adrias::ml
