/**
 * @file
 * Edge-domain regression tests for the fastmath transcendentals: NaN,
 * signed zeros, infinities, denormals and the −708 underflow cutoff.
 * Every LSTM kernel calls these functions, so the tests pin their
 * exact values at the specials.
 */

#include <cmath>
#include <cstring>
#include <limits>

#include <gtest/gtest.h>

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

} // namespace
} // namespace adrias::ml
