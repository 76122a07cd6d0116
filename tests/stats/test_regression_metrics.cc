/** @file Unit tests for stats/regression_metrics. */

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hh"
#include "stats/regression_metrics.hh"

namespace adrias::stats
{
namespace
{

TEST(R2Score, PerfectPredictionIsOne)
{
    std::vector<double> a{1.0, 2.0, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(r2Score(a, a), 1.0);
}

TEST(R2Score, MeanPredictorIsZero)
{
    std::vector<double> a{1.0, 2.0, 3.0};
    std::vector<double> p{2.0, 2.0, 2.0};
    EXPECT_DOUBLE_EQ(r2Score(a, p), 0.0);
}

TEST(R2Score, WorseThanMeanIsNegative)
{
    std::vector<double> a{1.0, 2.0, 3.0};
    std::vector<double> p{3.0, 2.0, 1.0};
    EXPECT_LT(r2Score(a, p), 0.0);
}

TEST(R2Score, ConstantActualDegenerateCases)
{
    std::vector<double> a{5.0, 5.0, 5.0};
    EXPECT_DOUBLE_EQ(r2Score(a, a), 1.0);
    std::vector<double> p{5.0, 5.0, 6.0};
    EXPECT_DOUBLE_EQ(r2Score(a, p), 0.0);
}

TEST(R2Score, SizeMismatchIsFatal)
{
    EXPECT_THROW(r2Score({1.0}, {1.0, 2.0}), std::runtime_error);
    EXPECT_THROW(r2Score({}, {}), std::runtime_error);
}

TEST(Mae, KnownValue)
{
    EXPECT_DOUBLE_EQ(meanAbsoluteError({1.0, 2.0, 3.0}, {2.0, 2.0, 5.0}),
                     1.0);
}

} // namespace
} // namespace adrias::stats
