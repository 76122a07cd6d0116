/**
 * @file
 * Edge-domain regression tests for the fastmath transcendentals: NaN,
 * signed zeros, infinities, denormals and the −708 underflow cutoff.
 * Every LSTM kernel calls these functions, so the tests pin their
 * exact values at the specials.
 */

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "ml/fastmath.hh"

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

// The scalar sigmoid every LSTM gate uses stays finite and saturates
// just inside the -708 exp cutoff.
TEST(SigmoidScalar, StableAtExtremes)
{
    EXPECT_EQ(fastmath::sigmoid(0.0), 0.5);
    EXPECT_EQ(fastmath::sigmoid(700.0), 1.0);
    EXPECT_NEAR(fastmath::sigmoid(-700.0), 0.0, 1e-12);
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

/** The two-quotient sigmoid fastmath::sigmoid replaced. */
double
sigmoidTwoDivisions(double x)
{
    const double e = fastmath::expNeg(-std::fabs(x));
    return x >= 0.0 ? 1.0 / (1.0 + e) : e / (1.0 + e);
}

/** The two-quotient tanh fastmath::tanh replaced. */
double
tanhTwoDivisions(double x)
{
    const double a2 = 2.0 * std::fabs(x);
    double t;
    if (a2 <= 0.25) {
        const double em1 = fastmath::expm1SmallNeg(-a2);
        t = -em1 / (2.0 + em1);
    } else {
        const double e = fastmath::expNeg(-a2);
        t = (1.0 - e) / (1.0 + e);
    }
    return std::copysign(t, x);
}

// sigmoid and tanh select their numerator and denominator, then divide
// once; the quotient's operands are the two-division forms', so every
// result, NaN payloads and signed zeros included, is the same bits.
TEST(FastmathEdges, OneDivisionFormsMatchTwoDivisionFormsBitwise)
{
    std::vector<double> inputs = {0.0,        -0.0,        kInf,
                                  -kInf,      kNan,        -kNan,
                                  kDenormMin, -kDenormMin, 1e-310,
                                  -1e-310,    708.0,       -708.0,
                                  709.0,      -709.0,      0.125,
                                  -0.125,     1e308,       -1e308};
    // Two doubles on each side of tanh's branch edge, |x| = 0.125.
    double edge = std::nextafter(std::nextafter(0.125, 0.0), 0.0);
    for (int i = 0; i < 5; ++i) {
        inputs.push_back(edge);
        inputs.push_back(-edge);
        edge = std::nextafter(edge, kInf);
    }
    // A 1e-5 sweep of [-1, 1], across the |x| = 0.125 branch edge.
    for (int i = -100000; i <= 100000; ++i)
        inputs.push_back(i * 1e-5);
    Rng rng(23);
    for (int i = 0; i < 100000; ++i) {
        inputs.push_back(rng.gaussian(0.0, 3.0));
        inputs.push_back(std::bit_cast<double>(rng.nextU64()));
    }

    std::size_t mismatches = 0;
    for (double x : inputs) {
        if (!sameBits(fastmath::sigmoid(x), sigmoidTwoDivisions(x)) ||
            !sameBits(fastmath::tanh(x), tanhTwoDivisions(x))) {
            if (++mismatches <= 5)
                ADD_FAILURE() << "bits differ at x = " << x << " (0x"
                              << std::hex << std::bit_cast<std::uint64_t>(x)
                              << std::dec << ")";
        }
    }
    EXPECT_EQ(mismatches, 0u) << "of " << inputs.size() << " inputs";
}

} // namespace
} // namespace adrias::ml
