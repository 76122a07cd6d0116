/** @file Unit and statistical tests for common/rng. */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/io/binary.hh"
#include "common/rng.hh"

namespace adrias
{
namespace
{

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.nextU64(), b.nextU64());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (a.nextU64() == b.nextU64());
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformStaysInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformRangeRespectsBounds)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform(-3.0, 5.0);
        EXPECT_GE(u, -3.0);
        EXPECT_LT(u, 5.0);
    }
}

TEST(Rng, UniformIntCoversInclusiveRange)
{
    Rng rng(11);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 2000; ++i) {
        const auto v = rng.uniformInt(3, 7);
        EXPECT_GE(v, 3);
        EXPECT_LE(v, 7);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, UniformIntDegenerateRange)
{
    Rng rng(11);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(rng.uniformInt(9, 9), 9);
}

TEST(Rng, GaussianMomentsAreSane)
{
    Rng rng(13);
    double sum = 0.0, sum_sq = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        const double g = rng.gaussian();
        sum += g;
        sum_sq += g * g;
    }
    const double mean = sum / n;
    const double var = sum_sq / n - mean * mean;
    EXPECT_NEAR(mean, 0.0, 0.03);
    EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(Rng, GaussianScaledMoments)
{
    Rng rng(17);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += rng.gaussian(10.0, 2.0);
    EXPECT_NEAR(sum / n, 10.0, 0.1);
}

TEST(Rng, BernoulliExtremes)
{
    Rng rng(23);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.bernoulli(0.0));
        EXPECT_TRUE(rng.bernoulli(1.0));
    }
}

TEST(Rng, BernoulliRateApproximatesProbability)
{
    Rng rng(29);
    int hits = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        hits += rng.bernoulli(0.3);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, SaveRestoreResumesIdenticalStream)
{
    Rng rng(20230228);
    // Mixed draws advance both the raw stream and Box-Muller caching.
    for (int i = 0; i < 17; ++i) {
        rng.nextU64();
        rng.gaussian();
        rng.uniformInt(0, 100);
    }

    io::BinaryWriter out;
    rng.saveState(out);

    std::vector<std::uint64_t> expected;
    std::vector<double> expectedGauss;
    for (int i = 0; i < 64; ++i) {
        expected.push_back(rng.nextU64());
        expectedGauss.push_back(rng.gaussian());
    }

    Rng restored(1); // deliberately different seed: state must win
    io::BinaryReader in(out.data());
    restored.restoreState(in);
    ASSERT_TRUE(in.ok());
    for (int i = 0; i < 64; ++i) {
        EXPECT_EQ(restored.nextU64(), expected[i]) << i;
        // Bitwise: restore must also carry the cached Gaussian half.
        EXPECT_EQ(restored.gaussian(), expectedGauss[i]) << i;
    }
}

TEST(Rng, SaveRestorePreservesPendingGaussianCache)
{
    Rng rng(7);
    rng.gaussian(); // leaves the Box-Muller pair half-consumed

    io::BinaryWriter out;
    rng.saveState(out);
    const double expected = rng.gaussian(); // the cached half

    Rng restored(7);
    io::BinaryReader in(out.data());
    restored.restoreState(in);
    EXPECT_EQ(restored.gaussian(), expected);
}

TEST(Rng, ShufflePreservesElements)
{
    Rng rng(41);
    std::vector<int> items{1, 2, 3, 4, 5, 6, 7, 8};
    auto copy = items;
    rng.shuffle(items);
    std::sort(items.begin(), items.end());
    EXPECT_EQ(items, copy);
}

} // namespace
} // namespace adrias
