/**
 * @file
 * The LC latency tail against a full draw of every sample.
 *
 * The oracle here shares nothing with src/ beyond Rng::uniform: it
 * draws each sample the way a per-sample latency model would
 * (Box-Muller by hand, 24 samples per tick) and selects with
 * stats::quantiles.  lcLatencyTail() must match it bit for bit, for
 * every q, while evaluating only the pairs that can reach the tail.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/io/binary.hh"
#include "common/rng.hh"
#include "stats/percentile.hh"
#include "workloads/lc_latency.hh"
#include "workloads/workload.hh"

namespace adrias::workloads
{
namespace
{

/** Every sample of the run (seed, scales), drawn one by one. */
std::vector<double>
drawEverySample(std::uint64_t seed, const std::vector<double> &scales,
                double sigma)
{
    Rng rng(seed);
    std::vector<double> samples;
    samples.reserve(scales.size() * 24);
    for (const double scale : scales) {
        for (int pair = 0; pair < 12; ++pair) {
            double u1;
            do {
                u1 = rng.uniform();
            } while (u1 <= 0.0);
            const double u2 = rng.uniform();
            const double radius = std::sqrt(-2.0 * std::log(u1));
            const double angle = 2.0 * M_PI * u2;
            for (const double g :
                 {radius * std::cos(angle), radius * std::sin(angle)})
                samples.push_back(scale *
                                  std::exp(sigma * g - 0.5 * sigma * sigma));
        }
    }
    return samples;
}

std::uint64_t
bitsOf(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

/**
 * `ticks` per-tick scales around 3 ms.  Shape 0 is flat, 1 jumps
 * uniformly over a 10x range, 2 is flat with rare 10x spikes, 3 ramps
 * 10x and back.
 */
std::vector<double>
scalesFor(int shape, std::size_t ticks, Rng &rng)
{
    std::vector<double> scales(ticks, 3.0);
    for (std::size_t t = 0; t < ticks; ++t) {
        double &s = scales[t];
        if (shape == 1)
            s = 3.0 * rng.uniform(1.0, 10.0);
        else if (shape == 2 && rng.uniform() < 0.03)
            s = 30.0;
        else if (shape == 3)
            s = 3.0 * (1.0 + 9.0 * std::fabs(std::sin(
                                  static_cast<double>(t) * 0.05)));
    }
    return scales;
}

TEST(LcLatencyTail, MatchesFullDrawBitwise)
{
    // 1 to 2084 ticks: N = 24 to 50,016 samples.
    const std::size_t tick_counts[] = {1, 2, 3, 7, 50, 267, 1000, 2084};
    const double sigmas[] = {0.0, 0.25, 2.0};
    const double qs[] = {0.0, 0.5, 0.99, 0.999, 1.0};
    std::size_t pairs = 0;
    std::size_t exact = 0;
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        Rng shape_rng(seed * 7919);
        const std::size_t ticks = tick_counts[seed % 8];
        const int shape = static_cast<int>((seed / 8) % 4);
        const std::vector<double> scales =
            scalesFor(shape, ticks, shape_rng);
        for (const double sigma : sigmas) {
            const std::vector<double> all =
                drawEverySample(seed, scales, sigma);
            ASSERT_EQ(all.size(), ticks * kLcSamplesPerTick);
            const std::string what =
                "seed=" + std::to_string(seed) +
                " ticks=" + std::to_string(ticks) +
                " shape=" + std::to_string(shape) +
                " sigma=" + std::to_string(sigma);
            for (const double q : qs) {
                const LatencyTail tail =
                    lcLatencyTail(seed, scales, sigma, {q});
                ASSERT_EQ(bitsOf(tail.ms.at(0)),
                          bitsOf(stats::quantile(all, q)))
                    << what << " q=" << q;
            }
            const LatencyTail tail =
                lcLatencyTail(seed, scales, sigma, {0.99, 0.999});
            const std::vector<double> want =
                stats::quantiles(all, {0.99, 0.999});
            ASSERT_EQ(bitsOf(tail.ms.at(0)), bitsOf(want[0])) << what;
            ASSERT_EQ(bitsOf(tail.ms.at(1)), bitsOf(want[1])) << what;
            ASSERT_EQ(tail.pairs, ticks * kLcSamplesPerTick / 2) << what;
            ASSERT_LE(tail.exactPairs, tail.pairs) << what;
            if (sigma == 0.25 && ticks >= 267) {
                pairs += tail.pairs;
                exact += tail.exactPairs;
            }
        }
    }
    // At the specs' sigma, long runs evaluate only a small share of
    // their pairs in full.
    ASSERT_GT(pairs, 0u);
    EXPECT_LT(static_cast<double>(exact), 0.2 * static_cast<double>(pairs));
}

TEST(LcLatencyTail, NoTicksReadsNaN)
{
    // An idle LC app reports "no data", never a perfect latency.
    const LatencyTail tail = lcLatencyTail(5, {}, 0.25, {0.5, 0.99});
    ASSERT_EQ(tail.ms.size(), 2u);
    EXPECT_TRUE(std::isnan(tail.ms[0]));
    EXPECT_TRUE(std::isnan(tail.ms[1]));
    EXPECT_EQ(tail.pairs, 0u);
    EXPECT_EQ(tail.exactPairs, 0u);
}

TEST(LcLatencyTail, ZeroSigmaConstantScaleIsFlat)
{
    const std::vector<double> scales(40, 3.5);
    const LatencyTail tail =
        lcLatencyTail(9, scales, 0.0, {0.0, 0.5, 0.999, 1.0});
    for (const double v : tail.ms)
        EXPECT_EQ(v, 3.5);
}

TEST(LcLatencyTail, RejectsBadQuantilesEvenWithoutTicks)
{
    EXPECT_THROW(lcLatencyTail(1, {}, 0.25, {1.5}), std::runtime_error);
    EXPECT_THROW(lcLatencyTail(1, {2.0}, 0.25, {0.999, 0.99}),
                 std::runtime_error);
    EXPECT_THROW(
        lcLatencyTail(1, {2.0}, 0.25,
                      {std::numeric_limits<double>::quiet_NaN()}),
        std::runtime_error);
}

testbed::LoadOutcome
outcome(DeploymentId id, double slowdown)
{
    testbed::LoadOutcome o;
    o.id = id;
    o.slowdown = slowdown;
    return o;
}

/** Slowdowns whose queueing inflation swings the scale over 40x. */
double
slowdownAt(SimTime t)
{
    const double steps[] = {1.0, 1.3, 1.6, 2.0, 1.1};
    return steps[static_cast<std::size_t>(t / 17) % 5];
}

/** The instance's tick scale (WorkloadInstance::advanceLatencyCritical
 *  at load factor 1): base latency x slowdown x M/M/1 inflation. */
double
scaleAt(const WorkloadSpec &spec, double slowdown)
{
    const double utilization = std::min(0.98, 0.6 * slowdown);
    return spec.baseLatencyMs * slowdown *
           ((1.0 - 0.6) / (1.0 - utilization));
}

TEST(LcLatencyTail, SaveRestoreMidRunMatchesFullDraw)
{
    const WorkloadSpec &spec = latencyCriticalBenchmarks().front();
    const std::uint64_t seed = 4242;
    const SimTime ticks = 240;
    WorkloadInstance whole(1, spec, MemoryMode::Remote, 0, seed);
    WorkloadInstance first_half(1, spec, MemoryMode::Remote, 0, seed);
    std::vector<double> scales;
    for (SimTime t = 1; t <= ticks; ++t) {
        whole.advance(outcome(1, slowdownAt(t)), t);
        scales.push_back(scaleAt(spec, slowdownAt(t)));
        if (t <= ticks / 2)
            first_half.advance(outcome(1, slowdownAt(t)), t);
    }
    ASSERT_FALSE(whole.finished());

    io::BinaryWriter out;
    first_half.saveState(out);
    io::BinaryReader in(out.data());
    Result<std::unique_ptr<WorkloadInstance>> restored =
        WorkloadInstance::restoreFromState(in);
    ASSERT_TRUE(restored.ok()) << restored.error().toString();
    ASSERT_TRUE(in.status().ok());
    WorkloadInstance &resumed = *restored.value();
    for (SimTime t = ticks / 2 + 1; t <= ticks; ++t)
        resumed.advance(outcome(1, slowdownAt(t)), t);

    const std::vector<double> all =
        drawEverySample(seed, scales, spec.latencySigma);
    const std::vector<double> want = stats::quantiles(all, {0.99, 0.999});
    for (const WorkloadInstance *app : {&whole, &resumed}) {
        const LatencyTail tail = app->tailLatenciesMs({0.99, 0.999});
        EXPECT_EQ(bitsOf(tail.ms[0]), bitsOf(want[0]));
        EXPECT_EQ(bitsOf(tail.ms[1]), bitsOf(want[1]));
        EXPECT_EQ(bitsOf(app->tailLatencyMs(0.5)),
                  bitsOf(stats::quantile(all, 0.5)));
    }
}

/** A saved LC instance a few ticks into its run. */
std::string
savedLcInstance()
{
    WorkloadInstance app(3, latencyCriticalBenchmarks().front(),
                         MemoryMode::Local, 0, 11);
    for (SimTime t = 1; t <= 4; ++t)
        app.advance(outcome(3, 1.2), t);
    io::BinaryWriter out;
    app.saveState(out);
    return out.take();
}

TEST(LcLatencyTail, TruncatedInstancePayloadIsTypedError)
{
    const std::string payload = savedLcInstance();
    for (std::size_t cut = 0; cut < payload.size(); ++cut) {
        io::BinaryReader in(std::string_view(payload).substr(0, cut));
        Result<std::unique_ptr<WorkloadInstance>> restored =
            WorkloadInstance::restoreFromState(in);
        ASSERT_FALSE(restored.ok()) << "cut=" << cut;
        EXPECT_EQ(restored.error().code, ErrorCode::Truncated)
            << "cut=" << cut;
    }
}

/** The v4 instance layout up to its scale count. */
io::BinaryWriter
instancePrefix(const std::string &spec_name)
{
    io::BinaryWriter out;
    out.writeU64(3);          // id
    out.writeString(spec_name);
    out.writeI64(0);          // arrival
    out.writeF64(1.0);        // load factor
    out.writeU8(0);           // mode
    out.writeU64(11);         // noise seed
    out.writeBool(false);     // done
    out.writeI64(-1);         // completion
    out.writeF64(0.0);        // progress
    out.writeF64(4.0);        // elapsed
    out.writeF64(1000.0);     // requests served
    return out;
}

TEST(LcLatencyTail, ScaleCountBeyondPayloadIsTypedError)
{
    // A count of 2^40 scales with a handful of bytes behind it must
    // fail the bounded read, not allocate.
    io::BinaryWriter out =
        instancePrefix(latencyCriticalBenchmarks().front().name);
    out.writeU64(std::uint64_t{1} << 40);
    for (int i = 0; i < 8; ++i)
        out.writeF64(2.0);
    io::BinaryReader in(out.data());
    Result<std::unique_ptr<WorkloadInstance>> restored =
        WorkloadInstance::restoreFromState(in);
    ASSERT_FALSE(restored.ok());
    EXPECT_EQ(restored.error().code, ErrorCode::Truncated);
}

TEST(LcLatencyTail, NonFiniteScaleIsTypedError)
{
    for (const double bad : {-1.0, std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN()}) {
        io::BinaryWriter out =
            instancePrefix(latencyCriticalBenchmarks().front().name);
        out.writeF64Vector({2.0, bad});
        out.writeF64(2.0);   // slowdown sum
        out.writeU64(2);     // ticks
        out.writeF64(0.0);   // remote GB
        out.writeF64(0.0);   // migration remaining
        out.writeF64(1.0);   // migration pause total
        out.writeU8(0);      // migration target
        out.writeU64(0);     // migrations done
        io::BinaryReader in(out.data());
        Result<std::unique_ptr<WorkloadInstance>> restored =
            WorkloadInstance::restoreFromState(in);
        ASSERT_FALSE(restored.ok()) << bad;
        EXPECT_EQ(restored.error().code, ErrorCode::BadNumber) << bad;
        EXPECT_TRUE(in.status().ok()) << bad;
    }
}

} // namespace
} // namespace adrias::workloads
