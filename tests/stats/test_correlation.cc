/** @file Unit tests for stats/correlation. */

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hh"
#include "stats/correlation.hh"

namespace adrias::stats
{
namespace
{

TEST(Pearson, PerfectPositive)
{
    std::vector<double> x{1.0, 2.0, 3.0, 4.0};
    std::vector<double> y{2.0, 4.0, 6.0, 8.0};
    EXPECT_NEAR(pearson(x, y), 1.0, 1e-12);
}

TEST(Pearson, PerfectNegative)
{
    std::vector<double> x{1.0, 2.0, 3.0};
    std::vector<double> y{9.0, 6.0, 3.0};
    EXPECT_NEAR(pearson(x, y), -1.0, 1e-12);
}

TEST(Pearson, ZeroVarianceGivesZero)
{
    std::vector<double> x{1.0, 1.0, 1.0};
    std::vector<double> y{1.0, 2.0, 3.0};
    EXPECT_DOUBLE_EQ(pearson(x, y), 0.0);
}

TEST(Pearson, IndependentSamplesNearZero)
{
    Rng rng(3);
    std::vector<double> x, y;
    for (int i = 0; i < 20000; ++i) {
        x.push_back(rng.gaussian());
        y.push_back(rng.gaussian());
    }
    EXPECT_NEAR(pearson(x, y), 0.0, 0.03);
}

TEST(Pearson, InvariantToAffineTransform)
{
    Rng rng(9);
    std::vector<double> x, y, y_scaled;
    for (int i = 0; i < 500; ++i) {
        const double a = rng.gaussian();
        x.push_back(a);
        const double b = 0.7 * a + 0.3 * rng.gaussian();
        y.push_back(b);
        y_scaled.push_back(5.0 * b - 100.0);
    }
    EXPECT_NEAR(pearson(x, y), pearson(x, y_scaled), 1e-12);
}

TEST(Pearson, InputValidation)
{
    EXPECT_THROW(pearson({1.0}, {1.0, 2.0}), std::runtime_error);
    EXPECT_THROW(pearson({1.0}, {1.0}), std::runtime_error);
}

} // namespace
} // namespace adrias::stats
