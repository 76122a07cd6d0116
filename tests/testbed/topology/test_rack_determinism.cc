/**
 * @file
 * Determinism tests for rack topologies: identical seeds must reproduce
 * identical ticks and identical cluster runs, bitwise, regardless of
 * the ADRIAS_THREADS setting the CI matrix applies.  ADRIAS_TOPOLOGY
 * selects the rack under test (default "rack-2x2-cxl") so one binary
 * covers the whole topology x thread-count matrix.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "scenario/cluster.hh"
#include "testbed/rack.hh"
#include "testbed/topology.hh"
#include "topology_under_test.hh"

namespace adrias::testbed
{
namespace
{

/** A deterministic per-node load mix on whatever rack is under test. */
std::vector<LoadDescriptor>
loadsFor(const Topology &topo)
{
    std::vector<LoadDescriptor> loads;
    DeploymentId id = 1;
    for (std::size_t n = 0; n < topo.nodeCount(); ++n) {
        LoadDescriptor local;
        local.id = id++;
        local.mode = MemoryMode::Local;
        local.node = n;
        local.memDemandGBps = 2.0 + 0.5 * static_cast<double>(n);
        loads.push_back(local);
        for (std::size_t l : topo.linksFrom(n)) {
            LoadDescriptor remote;
            remote.id = id++;
            remote.mode = MemoryMode::Remote;
            remote.node = n;
            remote.server = topo.link(l).server;
            remote.link = l;
            remote.memDemandGBps =
                1.0 + 0.25 * static_cast<double>(l);
            loads.push_back(remote);
        }
    }
    return loads;
}

void
expectBitwiseEqualTicks(const RackTickResult &a, const RackTickResult &b)
{
    ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
    for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
        EXPECT_EQ(a.outcomes[i].achievedGBps, b.outcomes[i].achievedGBps);
        EXPECT_EQ(a.outcomes[i].slowdown, b.outcomes[i].slowdown);
        EXPECT_EQ(a.outcomes[i].latencyNs, b.outcomes[i].latencyNs);
        EXPECT_EQ(a.outcomes[i].hitRate, b.outcomes[i].hitRate);
    }
    for (std::size_t n = 0; n < a.nodes.size(); ++n)
        for (std::size_t e = 0; e < kNumPerfEvents; ++e)
            EXPECT_EQ(a.nodes[n].counters[e], b.nodes[n].counters[e]);
    for (std::size_t l = 0; l < a.links.size(); ++l) {
        EXPECT_EQ(a.links[l].offeredGBps, b.links[l].offeredGBps);
        EXPECT_EQ(a.links[l].queuedGBps, b.links[l].queuedGBps);
        EXPECT_EQ(a.links[l].latencyCycles, b.links[l].latencyCycles);
    }
}

TEST(RackDeterminism, SameSeedTicksAreBitwiseIdentical)
{
    const Topology topo = topologyByName(topologyUnderTest());
    const auto loads = loadsFor(topo);
    RackTestbed a(topo, 1234);
    RackTestbed b(topo, 1234);
    for (int t = 0; t < 20; ++t)
        expectBitwiseEqualTicks(a.tick(loads), b.tick(loads));
}

TEST(RackDeterminism, NoiseSeedAffectsCountersNotPhysics)
{
    const Topology topo = topologyByName(topologyUnderTest());
    const auto loads = loadsFor(topo);
    RackTestbed a(topo, 1);
    RackTestbed b(topo, 2);
    const auto tick_a = a.tick(loads);
    const auto tick_b = b.tick(loads);
    // The contention physics is seed-free...
    for (std::size_t i = 0; i < loads.size(); ++i) {
        EXPECT_EQ(tick_a.outcomes[i].achievedGBps,
                  tick_b.outcomes[i].achievedGBps);
        EXPECT_EQ(tick_a.outcomes[i].slowdown, tick_b.outcomes[i].slowdown);
    }
    // ...while the measurement noise stream is not.
    bool any_differs = false;
    for (std::size_t n = 0; n < topo.nodeCount() && !any_differs; ++n)
        for (std::size_t e = 0; e < kNumPerfEvents; ++e)
            if (tick_a.nodes[n].counters[e] != tick_b.nodes[n].counters[e])
                any_differs = true;
    EXPECT_TRUE(any_differs);
}

TEST(RackDeterminism, ClusterRackRunsAreBitwiseIdentical)
{
    const Topology topo = topologyByName(topologyUnderTest());
    scenario::ScenarioConfig config;
    config.durationSec = 300;
    config.spawnMinSec = 4;
    config.spawnMaxSec = 15;
    config.seed = 2024;

    auto run_once = [&]() {
        scenario::ClusterScenarioRunner runner(topo, config);
        scenario::RandomPlacement policy(31);
        return runner.run(policy);
    };
    const scenario::ClusterResult a = run_once();
    const scenario::ClusterResult b = run_once();

    EXPECT_EQ(a.topologyName, topo.name());
    EXPECT_EQ(a.totalRemoteTrafficGB, b.totalRemoteTrafficGB);
    EXPECT_EQ(a.droppedArrivals, b.droppedArrivals);
    EXPECT_EQ(a.remoteFallbacks, b.remoteFallbacks);
    ASSERT_EQ(a.linkTotals.size(), b.linkTotals.size());
    for (std::size_t l = 0; l < a.linkTotals.size(); ++l) {
        EXPECT_EQ(a.linkTotals[l].offeredGb, b.linkTotals[l].offeredGb);
        EXPECT_EQ(a.linkTotals[l].deliveredGb,
                  b.linkTotals[l].deliveredGb);
        EXPECT_EQ(a.linkTotals[l].queuedGb, b.linkTotals[l].queuedGb);
        EXPECT_EQ(a.linkTotals[l].saturatedTicks,
                  b.linkTotals[l].saturatedTicks);
    }
    ASSERT_EQ(a.nodes.size(), b.nodes.size());
    for (std::size_t n = 0; n < a.nodes.size(); ++n) {
        ASSERT_EQ(a.nodes[n].trace.size(), b.nodes[n].trace.size());
        for (std::size_t t = 0; t < a.nodes[n].trace.size(); ++t)
            for (std::size_t e = 0; e < kNumPerfEvents; ++e)
                EXPECT_EQ(a.nodes[n].trace[t][e], b.nodes[n].trace[t][e]);
        ASSERT_EQ(a.nodes[n].records.size(), b.nodes[n].records.size());
        for (std::size_t r = 0; r < a.nodes[n].records.size(); ++r) {
            EXPECT_EQ(a.nodes[n].records[r].id, b.nodes[n].records[r].id);
            EXPECT_EQ(a.nodes[n].records[r].meanSlowdown,
                      b.nodes[n].records[r].meanSlowdown);
            EXPECT_EQ(a.nodes[n].records[r].execTimeSec,
                      b.nodes[n].records[r].execTimeSec);
        }
    }
}

TEST(RackDeterminism, LinkConservationHoldsOverEnvTopologyRun)
{
    // Cumulative conservation on the CI-selected topology: across a
    // whole cluster run, every link satisfies offered = delivered +
    // queued in total.
    const Topology topo = topologyByName(topologyUnderTest());
    scenario::ScenarioConfig config;
    config.durationSec = 300;
    config.seed = 77;

    scenario::ClusterScenarioRunner runner(topo, config);
    scenario::RandomPlacement policy(5);
    const scenario::ClusterResult result = runner.run(policy);
    ASSERT_EQ(result.linkTotals.size(), topo.linkCount());
    for (std::size_t l = 0; l < topo.linkCount(); ++l) {
        const LinkTotals &totals = result.linkTotals[l];
        EXPECT_NEAR(totals.offeredGb,
                    totals.deliveredGb + totals.queuedGb,
                    1e-6 + 1e-9 * totals.offeredGb);
        EXPECT_GE(totals.saturatedTicks, 0);
        EXPECT_LE(totals.saturatedTicks,
                  static_cast<std::int64_t>(config.durationSec));
    }
}

} // namespace
} // namespace adrias::testbed
