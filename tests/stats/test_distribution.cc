/** @file Unit tests for stats/distribution. */

#include <gtest/gtest.h>

#include <cmath>

#include "stats/distribution.hh"

namespace adrias::stats
{
namespace
{

TEST(DistributionSummary, EmptySampleIsAllNaN)
{
    const auto s = DistributionSummary::from({});
    EXPECT_EQ(s.count, 0u);
    EXPECT_TRUE(std::isnan(s.min));
    EXPECT_TRUE(std::isnan(s.median));
    EXPECT_TRUE(std::isnan(s.p99));
    EXPECT_TRUE(std::isnan(s.max));
    EXPECT_TRUE(std::isnan(s.mean));
}

TEST(DistributionSummary, OrderedStatistics)
{
    std::vector<double> v;
    for (int i = 1; i <= 1000; ++i)
        v.push_back(i);
    const auto s = DistributionSummary::from(v);
    EXPECT_EQ(s.count, 1000u);
    EXPECT_DOUBLE_EQ(s.min, 1.0);
    EXPECT_DOUBLE_EQ(s.max, 1000.0);
    EXPECT_NEAR(s.median, 500.5, 1e-9);
    EXPECT_LE(s.p25, s.median);
    EXPECT_LE(s.median, s.p75);
    EXPECT_LE(s.p75, s.p95);
    EXPECT_LE(s.p95, s.p99);
    EXPECT_NEAR(s.mean, 500.5, 1e-9);
}

TEST(DistributionSummary, ToStringMentionsFields)
{
    const auto s = DistributionSummary::from({1.0, 2.0, 3.0});
    const std::string text = s.toString();
    EXPECT_NE(text.find("n=3"), std::string::npos);
    EXPECT_NE(text.find("med="), std::string::npos);
}

} // namespace
} // namespace adrias::stats
