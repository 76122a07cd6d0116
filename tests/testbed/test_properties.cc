/** @file Property-based (parameterized) tests of the contention model. */

#include <gtest/gtest.h>

#include <cstdint>
#include <type_traits>

#include "testbed/testbed.hh"
#include "workloads/spec.hh"

namespace adrias::testbed
{
namespace
{

using workloads::IBenchKind;
using workloads::ibenchSpec;
using workloads::sparkBenchmark;
using workloads::sparkBenchmarks;

Testbed
quiet()
{
    Testbed bed;
    bed.setNoise(0.0);
    return bed;
}

double
appSlowdown(const workloads::WorkloadSpec &app, MemoryMode mode,
            IBenchKind kind, int trashers, MemoryMode trasher_mode)
{
    Testbed bed = quiet();
    std::vector<LoadDescriptor> loads{app.toLoad(0, mode)};
    for (int i = 1; i <= trashers; ++i)
        loads.push_back(
            ibenchSpec(kind).toLoad(static_cast<DeploymentId>(i),
                                    trasher_mode));
    return bed.tick(loads).outcomes.at(0).slowdown;
}

// Property 1: for every application, remote placement in isolation is
// never faster than local.
class RemoteNeverFasterTest
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(RemoteNeverFasterTest, InIsolation)
{
    const auto &app = sparkBenchmark(GetParam());
    Testbed bed = quiet();
    const double local =
        bed.tick({app.toLoad(0, MemoryMode::Local)}).outcomes[0].slowdown;
    const double remote =
        bed.tick({app.toLoad(0, MemoryMode::Remote)})
            .outcomes[0]
            .slowdown;
    EXPECT_GE(remote, local - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    AllSpark, RemoteNeverFasterTest,
    ::testing::Values("wordcount", "sort", "terasort", "kmeans", "bayes",
                      "gbt", "lr", "linear", "als", "pca", "gmm", "svm",
                      "svd", "nweight", "pagerank", "rf", "lda"));

// Property 2: slowdown is monotone in trasher count for every
// interference kind, in both modes.
//
// gtest names each case after the parameter's raw bytes, so the struct
// must have no padding: padding holds whatever the stack held, and the
// case names would change from one run to the next.
struct MonotoneCase
{
    IBenchKind kind;
    MemoryMode mode;
    std::uint8_t zeroTail[3] = {};
};
static_assert(std::has_unique_object_representations_v<MonotoneCase>);

class SlowdownMonotoneTest
    : public ::testing::TestWithParam<MonotoneCase>
{
};

TEST_P(SlowdownMonotoneTest, MoreTrashersNeverHelp)
{
    const IBenchKind kind = GetParam().kind;
    const MemoryMode mode = GetParam().mode;
    const auto &app = sparkBenchmark("sort");
    double prev = 0.0;
    for (int n : {0, 1, 2, 4, 8, 16, 32}) {
        const double s = appSlowdown(app, mode, kind, n, mode);
        EXPECT_GE(s, prev - 1e-6)
            << "kind=" << toString(kind) << " mode=" << toString(mode)
            << " n=" << n;
        prev = s;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SlowdownMonotoneTest,
    ::testing::Values(
        MonotoneCase{IBenchKind::Cpu, MemoryMode::Local},
        MonotoneCase{IBenchKind::L2, MemoryMode::Local},
        MonotoneCase{IBenchKind::L3, MemoryMode::Local},
        MonotoneCase{IBenchKind::MemBw, MemoryMode::Local},
        MonotoneCase{IBenchKind::Cpu, MemoryMode::Remote},
        MonotoneCase{IBenchKind::L3, MemoryMode::Remote},
        MonotoneCase{IBenchKind::MemBw, MemoryMode::Remote}));

// Property 3: conservation — aggregate achieved traffic never exceeds
// pool capacities, for arbitrary mixes.
class ConservationTest : public ::testing::TestWithParam<int>
{
};

TEST_P(ConservationTest, AchievedWithinCapacities)
{
    Testbed bed = quiet();
    Rng rng(static_cast<std::uint64_t>(GetParam()));
    const auto &sparks = sparkBenchmarks();
    std::vector<LoadDescriptor> loads;
    const int apps = static_cast<int>(rng.uniformInt(1, 30));
    for (int i = 0; i < apps; ++i) {
        const auto &spec = sparks[static_cast<std::size_t>(rng.uniformInt(
            0, static_cast<std::int64_t>(sparks.size()) - 1))];
        loads.push_back(spec.toLoad(
            static_cast<DeploymentId>(i),
            rng.bernoulli(0.5) ? MemoryMode::Remote : MemoryMode::Local));
    }
    const TickResult tick = bed.tick(loads);
    EXPECT_LE(tick.remoteTrafficGBps,
              bed.link().bandwidthGBps + 1e-9);
    EXPECT_LE(tick.localTrafficGBps, bed.params().localBwGBps + 1e-9);

    // Per-app achieved traffic never exceeds its unimpeded demand.
    for (std::size_t i = 0; i < loads.size(); ++i) {
        EXPECT_LE(tick.outcomes[i].achievedGBps,
                  loads[i].memDemandGBps + 1e-9);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConservationTest,
                         ::testing::Range(1, 11));

// Property 4: channel latency is bounded to [base, saturation] for any
// load mix.
TEST(ChannelLatencyBounds, AlwaysWithinModelRange)
{
    Testbed bed = quiet();
    Rng rng(77);
    for (int trial = 0; trial < 50; ++trial) {
        std::vector<LoadDescriptor> loads;
        const int n = static_cast<int>(rng.uniformInt(0, 35));
        for (int i = 0; i < n; ++i) {
            loads.push_back(ibenchSpec(IBenchKind::MemBw)
                                .toLoad(static_cast<DeploymentId>(i),
                                        rng.bernoulli(0.7)
                                            ? MemoryMode::Remote
                                            : MemoryMode::Local));
        }
        const TickResult tick = bed.tick(loads);
        EXPECT_GE(tick.channelLatencyCycles,
                  bed.link().latencyBaseCycles - 1e-9);
        EXPECT_LE(tick.channelLatencyCycles,
                  bed.link().latencySatCycles + 1e-9);
    }
}

// Property 5: adding a co-runner never speeds anyone up.
TEST(InterferenceNeverHelps, AddingCoRunnerIsMonotone)
{
    Testbed bed = quiet();
    const auto &victim = sparkBenchmark("kmeans");
    const auto &intruder = sparkBenchmark("nweight");

    for (MemoryMode mode : {MemoryMode::Local, MemoryMode::Remote}) {
        const double alone =
            bed.tick({victim.toLoad(0, mode)}).outcomes[0].slowdown;
        const double together =
            bed.tick({victim.toLoad(0, mode), intruder.toLoad(1, mode)})
                .outcomes[0]
                .slowdown;
        EXPECT_GE(together, alone - 1e-9) << toString(mode);
    }
}

// Property 6: hit rates and miss scales stay in their legal ranges.
TEST(OutcomeRanges, HitRateAndMissScaleLegal)
{
    Testbed bed = quiet();
    std::vector<LoadDescriptor> loads;
    for (int i = 0; i < 20; ++i)
        loads.push_back(ibenchSpec(IBenchKind::L3).toLoad(
            static_cast<DeploymentId>(i), MemoryMode::Local));
    loads.push_back(sparkBenchmark("nweight").toLoad(
        99, MemoryMode::Remote));
    for (const auto &outcome : bed.tick(loads).outcomes) {
        EXPECT_GE(outcome.hitRate, 0.0);
        EXPECT_LE(outcome.hitRate, 1.0);
        EXPECT_GE(outcome.missScale, 1.0);
        EXPECT_GE(outcome.slowdown, 1.0);
        EXPECT_GE(outcome.achievedGBps, 0.0);
    }
}

} // namespace
} // namespace adrias::testbed
