/** @file Unit tests for the ThymesisFlow testbed contention model. */

#include <gtest/gtest.h>

#include "testbed/testbed.hh"
#include "workloads/spec.hh"

namespace adrias::testbed
{
namespace
{

using workloads::IBenchKind;
using workloads::ibenchSpec;

Testbed
quietTestbed()
{
    Testbed testbed;
    testbed.setNoise(0.0);
    return testbed;
}

TEST(LlcModel, NoContentionKeepsBaseHitRate)
{
    EXPECT_DOUBLE_EQ(llcEffectiveHitRate(0.9, 5.0, 15.0, 20.0), 0.9);
    EXPECT_DOUBLE_EQ(llcEffectiveHitRate(0.9, 5.0, 20.0, 20.0), 0.9);
}

TEST(LlcModel, OversubscriptionDegradesProportionally)
{
    // 40 MB competing for 20 MB -> half the hot set resident.
    EXPECT_DOUBLE_EQ(llcEffectiveHitRate(0.9, 5.0, 40.0, 20.0), 0.45);
}

TEST(LlcModel, Monotonic)
{
    double prev = 1.0;
    for (double total = 10.0; total <= 200.0; total += 10.0) {
        const double h = llcEffectiveHitRate(0.85, 5.0, total, 20.0);
        EXPECT_LE(h, prev);
        prev = h;
    }
}

TEST(LlcModel, InputValidation)
{
    EXPECT_THROW(llcEffectiveHitRate(0.9, 1.0, 2.0, 0.0),
                 std::runtime_error);
    EXPECT_THROW(llcEffectiveHitRate(0.9, 5.0, 2.0, 20.0),
                 std::logic_error);
}

TEST(ChannelLatency, SteadyBelowRampStart)
{
    const LinkProfile &link = kThymesisFlowProfile;
    EXPECT_DOUBLE_EQ(linkLatencyCycles(link, 0.0), 350.0);
    EXPECT_DOUBLE_EQ(linkLatencyCycles(link, 1.0), 350.0);
    EXPECT_DOUBLE_EQ(linkLatencyCycles(link, link.rampStart), 350.0);
}

TEST(ChannelLatency, PlateauAboveRampEnd)
{
    const LinkProfile &link = kThymesisFlowProfile;
    EXPECT_DOUBLE_EQ(linkLatencyCycles(link, link.rampEnd), 900.0);
    EXPECT_DOUBLE_EQ(linkLatencyCycles(link, 10.0), 900.0);
}

TEST(ChannelLatency, MonotoneRampBetween)
{
    double prev = 0.0;
    for (double p = 0.0; p < 4.0; p += 0.1) {
        const double lat = linkLatencyCycles(kThymesisFlowProfile, p);
        EXPECT_GE(lat, prev);
        prev = lat;
    }
}

TEST(ChannelLatency, NegativePressurePanics)
{
    EXPECT_THROW(linkLatencyCycles(kThymesisFlowProfile, -0.1),
                 std::logic_error);
}

TEST(Testbed, RejectsBadParams)
{
    LinkProfile dead = kThymesisFlowProfile;
    dead.bandwidthGBps = 0.0;
    Topology bad("dead-pair");
    bad.addNode({"n0", {}});
    bad.addServer({"s0", 256.0, 15.0, {}});
    bad.addLink(0, 0, dead);
    EXPECT_THROW(Testbed{bad}, std::runtime_error);
    TestbedParams bad2;
    bad2.llcCapacityMb = -1.0;
    EXPECT_THROW(Testbed{bad2}, std::runtime_error);
    // The two-node view needs exactly one node behind one link.
    EXPECT_THROW(Testbed{Topology::independentPairs(2)},
                 std::runtime_error);
}

TEST(Testbed, EmptyTickIsQuiet)
{
    Testbed testbed = quietTestbed();
    const TickResult result = testbed.tick({});
    EXPECT_TRUE(result.outcomes.empty());
    EXPECT_DOUBLE_EQ(result.remoteTrafficGBps, 0.0);
    EXPECT_DOUBLE_EQ(result.channelLatencyCycles, 350.0);
    for (double c : result.counters)
        EXPECT_GE(c, 0.0);
    EXPECT_DOUBLE_EQ(
        result.counters[static_cast<std::size_t>(PerfEvent::RemoteTx)],
        0.0);
}

TEST(Testbed, SingleLocalAppRunsUnimpeded)
{
    Testbed testbed = quietTestbed();
    LoadDescriptor load = workloads::sparkBenchmark("gmm").toLoad(
        1, MemoryMode::Local);
    const TickResult result = testbed.tick({load});
    ASSERT_EQ(result.outcomes.size(), 1u);
    EXPECT_NEAR(result.outcomes[0].slowdown, 1.0, 0.02);
    EXPECT_DOUBLE_EQ(result.remoteTrafficGBps, 0.0);
}

TEST(Testbed, LocalOnlyTickProducesNoFlits)
{
    Testbed testbed = quietTestbed();
    std::vector<LoadDescriptor> loads;
    for (int i = 0; i < 4; ++i)
        loads.push_back(workloads::sparkBenchmark("sort").toLoad(
            i, MemoryMode::Local));
    const TickResult result = testbed.tick(loads);
    EXPECT_DOUBLE_EQ(
        result.counters[static_cast<std::size_t>(PerfEvent::RemoteTx)],
        0.0);
    EXPECT_DOUBLE_EQ(
        result.counters[static_cast<std::size_t>(PerfEvent::RemoteRx)],
        0.0);
}

TEST(Testbed, RemoteTrafficBoundedByChannelCap)
{
    // Observation R1: no matter the offered load, achieved remote
    // traffic never exceeds ~2.5 Gbps.
    Testbed testbed = quietTestbed();
    std::vector<LoadDescriptor> loads;
    for (int i = 0; i < 32; ++i)
        loads.push_back(ibenchSpec(IBenchKind::MemBw)
                            .toLoad(i, MemoryMode::Remote));
    const TickResult result = testbed.tick(loads);
    EXPECT_LE(result.remoteTrafficGBps,
              testbed.link().bandwidthGBps + 1e-9);
    EXPECT_GT(result.remoteTrafficGBps,
              0.9 * testbed.link().bandwidthGBps);
}

TEST(Testbed, Fig2LatencyStepUnderSaturation)
{
    // Observation R2: ~350 cycles for 1-4 memBw trashers, ~900 for 8+.
    Testbed testbed = quietTestbed();
    auto latency_for = [&](int n) {
        std::vector<LoadDescriptor> loads;
        for (int i = 0; i < n; ++i)
            loads.push_back(ibenchSpec(IBenchKind::MemBw)
                                .toLoad(i, MemoryMode::Remote));
        return testbed.tick(loads).channelLatencyCycles;
    };
    EXPECT_NEAR(latency_for(1), 350.0, 1.0);
    EXPECT_NEAR(latency_for(2), 350.0, 1.0);
    EXPECT_LT(latency_for(4), 500.0);
    EXPECT_NEAR(latency_for(8), 900.0, 60.0);
    EXPECT_NEAR(latency_for(16), 900.0, 1.0);
    EXPECT_NEAR(latency_for(32), 900.0, 1.0);
}

TEST(Testbed, Fig2ThroughputRisesThenPlateaus)
{
    Testbed testbed = quietTestbed();
    auto traffic_for = [&](int n) {
        std::vector<LoadDescriptor> loads;
        for (int i = 0; i < n; ++i)
            loads.push_back(ibenchSpec(IBenchKind::MemBw)
                                .toLoad(i, MemoryMode::Remote));
        return testbed.tick(loads).remoteTrafficGBps;
    };
    const double t1 = traffic_for(1);
    const double t2 = traffic_for(2);
    const double t8 = traffic_for(8);
    const double t32 = traffic_for(32);
    EXPECT_GT(t2, 1.8 * t1); // near-linear ramp below saturation
    EXPECT_NEAR(t8, t32, 1e-9); // plateau
    EXPECT_LT(t1, t8);
}

TEST(Testbed, CpuOversubscriptionSlowsComputeBoundApps)
{
    Testbed testbed = quietTestbed();
    std::vector<LoadDescriptor> loads;
    LoadDescriptor app;
    app.id = 0;
    app.cpuCores = 8.0;
    app.cpuFraction = 1.0;
    app.memDemandGBps = 0.0;
    loads.push_back(app);
    for (int i = 1; i <= 30; ++i)
        loads.push_back(ibenchSpec(IBenchKind::Cpu)
                            .toLoad(i, MemoryMode::Local));
    const TickResult result = testbed.tick(loads);
    // 8 + 30*4 = 128 demanded cores on a 64-core node -> ~2x.
    EXPECT_NEAR(result.outcomes[0].slowdown, 2.0, 0.1);
}

TEST(Testbed, RemoteLatencyReportedPerPool)
{
    Testbed testbed = quietTestbed();
    LoadDescriptor local_app = workloads::sparkBenchmark("gmm").toLoad(
        0, MemoryMode::Local);
    LoadDescriptor remote_app = workloads::sparkBenchmark("gmm").toLoad(
        1, MemoryMode::Remote);
    const TickResult result = testbed.tick({local_app, remote_app});
    EXPECT_NEAR(result.outcomes[0].latencyNs, 80.0, 10.0);
    EXPECT_GE(result.outcomes[1].latencyNs, 900.0 - 1.0);
}

TEST(Testbed, SlowdownNeverBelowOne)
{
    Testbed testbed = quietTestbed();
    std::vector<LoadDescriptor> loads;
    for (int i = 0; i < 10; ++i)
        loads.push_back(workloads::sparkBenchmark("pca").toLoad(
            i, i % 2 ? MemoryMode::Remote : MemoryMode::Local));
    for (const auto &outcome : testbed.tick(loads).outcomes)
        EXPECT_GE(outcome.slowdown, 1.0);
}

TEST(Testbed, CounterNoiseIsBounded)
{
    Testbed noisy(TestbedParams{}, 7);
    noisy.setNoise(0.01);
    Testbed quiet = quietTestbed();
    LoadDescriptor load = workloads::sparkBenchmark("sort").toLoad(
        0, MemoryMode::Local);
    const auto noisy_counters = noisy.tick({load}).counters;
    const auto quiet_counters = quiet.tick({load}).counters;
    for (std::size_t i = 0; i < kNumPerfEvents; ++i) {
        if (quiet_counters[i] == 0.0)
            continue;
        EXPECT_NEAR(noisy_counters[i] / quiet_counters[i], 1.0, 0.1);
    }
}

TEST(Counters, NamesAreUniqueAndStable)
{
    std::vector<std::string> names;
    for (PerfEvent event : allPerfEvents())
        names.push_back(perfEventName(event));
    ASSERT_EQ(names.size(), kNumPerfEvents);
    std::sort(names.begin(), names.end());
    EXPECT_EQ(std::unique(names.begin(), names.end()), names.end());
    EXPECT_EQ(perfEventName(PerfEvent::ChannelLat), "CHAN_lat");
}

} // namespace
} // namespace adrias::testbed
