/** @file Unit tests for stats/online_stats. */

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hh"
#include "stats/online_stats.hh"

namespace adrias::stats
{
namespace
{

TEST(OnlineStats, EmptyDefaults)
{
    OnlineStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.variance(), 0.0);
    EXPECT_TRUE(std::isinf(s.min()));
    EXPECT_TRUE(std::isinf(s.max()));
}

TEST(OnlineStats, SingleValue)
{
    OnlineStats s;
    s.add(5.0);
    EXPECT_EQ(s.count(), 1u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    EXPECT_DOUBLE_EQ(s.min(), 5.0);
    EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(OnlineStats, KnownSample)
{
    OnlineStats s;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(v);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.variance(), 4.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(OnlineStats, ResetClearsEverything)
{
    OnlineStats s;
    s.add(1.0);
    s.reset();
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    s.add(7.0);
    EXPECT_DOUBLE_EQ(s.mean(), 7.0);
}

TEST(OnlineStats, StableUnderLargeOffset)
{
    // Welford must keep precision where naive sum-of-squares would not.
    OnlineStats s;
    const double offset = 1e9;
    for (double v : {offset + 1.0, offset + 2.0, offset + 3.0})
        s.add(v);
    EXPECT_NEAR(s.variance(), 2.0 / 3.0, 1e-6);
}

} // namespace
} // namespace adrias::stats
