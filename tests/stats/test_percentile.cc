/** @file Unit tests for stats/percentile. */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

#include "common/rng.hh"
#include "stats/percentile.hh"

namespace adrias::stats
{
namespace
{

TEST(Quantile, EmptySampleIsNaN)
{
    EXPECT_TRUE(std::isnan(quantile({}, 0.5)));
}

TEST(Quantile, SingleElement)
{
    EXPECT_DOUBLE_EQ(quantile({3.0}, 0.0), 3.0);
    EXPECT_DOUBLE_EQ(quantile({3.0}, 0.5), 3.0);
    EXPECT_DOUBLE_EQ(quantile({3.0}, 1.0), 3.0);
}

TEST(Quantile, BoundaryQValuesAreValid)
{
    const std::vector<double> sample{1.0, 2.0, 3.0};
    EXPECT_DOUBLE_EQ(quantile(sample, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(quantile(sample, 1.0), 3.0);
}

TEST(Quantile, RejectsNaNQ)
{
    const std::vector<double> sample{1.0, 2.0, 3.0};
    EXPECT_THROW(quantile(sample, std::nan("")), std::runtime_error);
}

TEST(Quantile, BadQIsRejectedEvenForEmptySamples)
{
    // Regression: NaN slipped past the old `q < 0 || q > 1` check
    // (both comparisons are false for NaN) into a float→size_t cast,
    // and an empty sample with any bad q silently returned NaN.  The
    // argument is validated before the empty-sample early-out.
    EXPECT_THROW(quantile({}, -1.0), std::runtime_error);
    EXPECT_THROW(quantile({}, 2.0), std::runtime_error);
    EXPECT_THROW(quantile({}, std::nan("")), std::runtime_error);
}

TEST(Quantile, AllEqualSampleIsFlatAcrossQ)
{
    const std::vector<double> flat(17, 4.25);
    for (double q : {0.0, 0.01, 0.5, 0.9, 0.99, 1.0})
        EXPECT_DOUBLE_EQ(quantile(flat, q), 4.25) << "q=" << q;
}

/**
 * The reservoir's contents in ascending order, read back through
 * quantile(): over n retained values, q = k / (n - 1) lands on order
 * statistic k.  With integer-valued observations a read-back that is
 * not an integer means the reservoir does not hold exactly n values.
 */
std::vector<double>
retainedSorted(const ReservoirSampler &r, std::size_t n)
{
    std::vector<double> out;
    for (std::size_t k = 0; k < n; ++k) {
        const double q =
            n == 1 ? 0.0
                   : static_cast<double>(k) / static_cast<double>(n - 1);
        const double v = r.quantile(q);
        EXPECT_NEAR(v, std::round(v), 1e-9) << "k=" << k << " n=" << n;
        out.push_back(std::round(v));
    }
    return out;
}

TEST(ReservoirSampler, EmptyReservoirQuantileIsNaN)
{
    const ReservoirSampler r(8);
    EXPECT_TRUE(std::isnan(r.quantile(0.5)));
}

TEST(ReservoirSampler, SingleObservation)
{
    ReservoirSampler r(8);
    r.add(9.0);
    EXPECT_DOUBLE_EQ(r.quantile(0.0), 9.0);
    EXPECT_DOUBLE_EQ(r.quantile(1.0), 9.0);
}

TEST(ReservoirSampler, AllEqualEvenPastCapacity)
{
    ReservoirSampler r(16);
    for (int i = 0; i < 1000; ++i)
        r.add(2.5);
    EXPECT_EQ(r.count(), 1000u);
    EXPECT_DOUBLE_EQ(r.quantile(0.5), 2.5);
    EXPECT_DOUBLE_EQ(r.quantile(0.99), 2.5);
}

TEST(Quantile, MedianOfOddSample)
{
    EXPECT_DOUBLE_EQ(quantile({5.0, 1.0, 3.0}, 0.5), 3.0);
}

TEST(Quantile, InterpolatesBetweenPoints)
{
    // type-7: pos = q*(n-1); for {10,20}, q=0.25 -> 12.5
    EXPECT_DOUBLE_EQ(quantile({10.0, 20.0}, 0.25), 12.5);
}

TEST(Quantile, ExtremesAreMinMax)
{
    std::vector<double> v{4.0, 2.0, 9.0, 7.0};
    EXPECT_DOUBLE_EQ(quantile(v, 0.0), 2.0);
    EXPECT_DOUBLE_EQ(quantile(v, 1.0), 9.0);
}

TEST(Quantile, RejectsOutOfRangeQ)
{
    EXPECT_THROW(quantile({1.0}, -0.1), std::runtime_error);
    EXPECT_THROW(quantile({1.0}, 1.1), std::runtime_error);
}

/** Type-7 by a full sort: the oracle the selection must match. */
double
sortedQuantile(std::vector<double> values, double q)
{
    if (values.empty())
        return std::numeric_limits<double>::quiet_NaN();
    std::sort(values.begin(), values.end());
    if (values.size() == 1)
        return values.front();
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const auto hi = static_cast<std::size_t>(std::ceil(pos));
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + frac * (values[hi] - values[lo]);
}

std::uint64_t
bitsOf(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

TEST(Quantile, SelectionMatchesSortOracleBitwise)
{
    Rng rng(2026);
    std::vector<std::size_t> sizes;
    for (std::size_t n = 1; n <= 64; ++n)
        sizes.push_back(n);
    for (std::size_t n : {100, 127, 128, 999, 1000, 1001, 4096, 7000, 8999,
                          9000})
        sizes.push_back(n);
    for (int i = 0; i < 16; ++i)
        sizes.push_back(static_cast<std::size_t>(rng.uniformInt(65, 9000)));

    for (std::size_t n : sizes) {
        // 0: latency-like lognormal; 1: few distinct values (ties
        // everywhere); 2: ties plus ±inf and +0 (no signed-zero ties).
        for (int shape = 0; shape < 3; ++shape) {
            std::vector<double> values(n);
            for (double &v : values) {
                if (shape == 0) {
                    v = std::exp(rng.gaussian(1.0, 0.8));
                } else {
                    v = static_cast<double>(rng.uniformInt(-3, 3)) * 0.5;
                    if (shape == 2 && rng.uniform() < 0.05)
                        v = rng.uniform() < 0.5
                                ? std::numeric_limits<double>::infinity()
                                : -std::numeric_limits<double>::infinity();
                }
            }
            std::vector<double> qs{0.0, 0.5, 0.99, 0.999, 1.0, rng.uniform(),
                                   rng.uniform()};
            const std::string what =
                "n=" + std::to_string(n) + " shape=" + std::to_string(shape);
            for (double q : qs) {
                ASSERT_EQ(bitsOf(quantile(values, q)),
                          bitsOf(sortedQuantile(values, q)))
                    << what << " q=" << q;
            }
            std::sort(qs.begin(), qs.end());
            const std::vector<double> all = quantiles(
                values, {qs[0], qs[1], qs[2], qs[3], qs[4], qs[5], qs[6]});
            for (std::size_t i = 0; i < qs.size(); ++i) {
                ASSERT_EQ(bitsOf(all[i]),
                          bitsOf(sortedQuantile(values, qs[i])))
                    << what << " batched q=" << qs[i];
            }
        }
    }
}

TEST(Quantile, BatchedQuantilesValidateLikeQuantile)
{
    const std::vector<double> sample{1.0, 2.0, 3.0};
    EXPECT_THROW(quantiles(sample, {0.999, 0.99}), std::runtime_error);
    EXPECT_THROW(quantiles(sample, {0.5, std::nan("")}), std::runtime_error);
    EXPECT_THROW(quantiles({}, {0.5, 1.5}), std::runtime_error);
    const std::vector<double> empty = quantiles({}, {0.99, 0.999});
    ASSERT_EQ(empty.size(), 2u);
    EXPECT_TRUE(std::isnan(empty[0]) && std::isnan(empty[1]));
    // A repeated q is ascending and selects nothing new.
    EXPECT_EQ(quantiles(sample, {0.5, 0.5}), (std::vector<double>{2.0, 2.0}));
}

TEST(ReservoirSampler, RetainsAllBelowCapacity)
{
    ReservoirSampler r(100);
    for (int i = 0; i < 50; ++i)
        r.add(i);
    EXPECT_EQ(r.count(), 50u);
    std::vector<double> all(50);
    for (int i = 0; i < 50; ++i)
        all[static_cast<std::size_t>(i)] = i;
    EXPECT_EQ(retainedSorted(r, 50), all);
}

TEST(ReservoirSampler, BoundsMemoryAboveCapacity)
{
    ReservoirSampler r(64);
    for (int i = 0; i < 10000; ++i)
        r.add(i);
    EXPECT_EQ(r.count(), 10000u);
    const std::vector<double> kept = retainedSorted(r, 64);
    EXPECT_TRUE(std::adjacent_find(kept.begin(), kept.end()) == kept.end())
        << "64 distinct observations expected";
}

TEST(ReservoirSampler, QuantileApproximatesTrueQuantile)
{
    Rng rng(5);
    ReservoirSampler r(2000);
    std::vector<double> exact;
    for (int i = 0; i < 100000; ++i) {
        const double v = rng.uniform(0.0, 100.0);
        r.add(v);
        exact.push_back(v);
    }
    EXPECT_NEAR(r.quantile(0.5), quantile(exact, 0.5), 3.0);
    EXPECT_NEAR(r.quantile(0.9), quantile(exact, 0.9), 3.0);
}

TEST(ReservoirSampler, ZeroCapacityIsFatal)
{
    EXPECT_THROW(ReservoirSampler(0), std::runtime_error);
}

TEST(ReservoirSampler, SeedPinnedReservoirIsDeterministic)
{
    // Vitter regression: one (seed, input stream) pair must always
    // yield the same reservoir, so quantiles over it are reproducible
    // run to run.
    ReservoirSampler a(32, 777);
    ReservoirSampler b(32, 777);
    for (int i = 0; i < 5000; ++i) {
        a.add(static_cast<double>(i));
        b.add(static_cast<double>(i));
    }
    EXPECT_EQ(retainedSorted(a, 32), retainedSorted(b, 32));
    EXPECT_DOUBLE_EQ(a.quantile(0.5), b.quantile(0.5));
    EXPECT_DOUBLE_EQ(a.quantile(0.99), b.quantile(0.99));

    // A different seed must be able to make different replacement
    // choices over the same stream.
    ReservoirSampler c(32, 778);
    for (int i = 0; i < 5000; ++i)
        c.add(static_cast<double>(i));
    EXPECT_NE(retainedSorted(a, 32), retainedSorted(c, 32));
}

TEST(ReservoirSampler, ReplacementProbabilityIsCapOverN)
{
    // Sharp Algorithm R check at capacity 1: after {x, y}, P(retain y)
    // must be 1/2.  The buggy variants this guards against are
    // exclusive bounds on the slot draw (P = 1, always replaces) and
    // drawing before the count advances (P = 1 as well at n = 2), so
    // any bias here lands far outside the tolerance band.
    int replaced = 0;
    const int trials = 4000;
    for (int t = 0; t < trials; ++t) {
        ReservoirSampler r(1, static_cast<std::uint64_t>(t) + 1);
        r.add(0.0);
        r.add(1.0);
        replaced += r.quantile(0.0) > 0.5 ? 1 : 0;
    }
    const double rate =
        static_cast<double>(replaced) / static_cast<double>(trials);
    EXPECT_NEAR(rate, 0.5, 0.03);
}

TEST(ReservoirSampler, EveryObservationRetainedUniformly)
{
    // With capacity K over N observations every index must survive
    // with probability K/N — the defining Vitter property.  Tally
    // per-index retention over many independently seeded reservoirs.
    const std::size_t kCap = 8;
    const int kN = 64;
    const int trials = 3000;
    std::vector<int> kept(kN, 0);
    for (int t = 0; t < trials; ++t) {
        ReservoirSampler r(kCap, static_cast<std::uint64_t>(t) + 1);
        for (int i = 0; i < kN; ++i)
            r.add(static_cast<double>(i));
        for (double v : retainedSorted(r, kCap))
            ++kept[static_cast<std::size_t>(v)];
    }
    const double expected = static_cast<double>(kCap) / kN; // 0.125
    for (int i = 0; i < kN; ++i) {
        const double rate =
            static_cast<double>(kept[static_cast<std::size_t>(i)]) /
            static_cast<double>(trials);
        EXPECT_NEAR(rate, expected, 0.035) << "index " << i;
    }
}

TEST(Quantile, QuantilesMatchQuantile)
{
    Rng rng(77);
    std::vector<double> values;
    for (int i = 0; i < 7000; ++i)
        values.push_back(rng.uniform(0.5, 40.0));
    const std::vector<double> tail = quantiles(values, {0.99, 0.999});
    EXPECT_EQ(bitsOf(tail[0]), bitsOf(quantile(values, 0.99)));
    EXPECT_EQ(bitsOf(tail[1]), bitsOf(quantile(values, 0.999)));
}

TEST(Quantile, RankFollowsTypeSeven)
{
    // 1..100 at q = 0.99: pos = 98.01, so 99 + 0.01 * (100 - 99).
    const QuantileRank rank = quantileRank(0.99, 100);
    EXPECT_EQ(rank.lo, 98u);
    EXPECT_EQ(rank.hi, 99u);
    EXPECT_NEAR(rank.frac, 0.01, 1e-12);
    std::vector<double> values;
    for (int i = 1; i <= 100; ++i)
        values.push_back(static_cast<double>(i));
    EXPECT_NEAR(quantile(values, 0.99), 99.01, 1e-9);
    const QuantileRank exact = quantileRank(0.5, 3);
    EXPECT_EQ(exact.lo, 1u);
    EXPECT_EQ(exact.hi, 1u);
    EXPECT_EQ(exact.frac, 0.0);
}

class QuantileMonotoneTest : public ::testing::TestWithParam<double>
{
};

TEST_P(QuantileMonotoneTest, QuantileIsMonotoneInQ)
{
    Rng rng(123);
    std::vector<double> sample;
    for (int i = 0; i < 500; ++i)
        sample.push_back(rng.gaussian(0.0, 10.0));
    const double q = GetParam();
    EXPECT_LE(quantile(sample, q), quantile(sample, std::min(1.0, q + 0.05)));
}

INSTANTIATE_TEST_SUITE_P(Sweep, QuantileMonotoneTest,
                         ::testing::Values(0.0, 0.1, 0.25, 0.5, 0.75, 0.9,
                                           0.95));

} // namespace
} // namespace adrias::stats
