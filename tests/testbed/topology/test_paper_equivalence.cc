/**
 * @file
 * Paper-pair equivalence.  Testbed is a view over RackTestbed on the
 * "paper-pair" topology, so the two-node machine and the 1×1 rack are
 * one resolver by construction; these tests pin what that construction
 * must keep: naming the topology changes nothing, links added beside
 * the paper's channel never perturb the node's counters, and pairs-N
 * keeps its nodes isolated.
 */

#include <gtest/gtest.h>

#include <vector>

#include "scenario/engine.hh"
#include "scenario/runner.hh"
#include "testbed/rack.hh"
#include "testbed/testbed.hh"
#include "testbed/topology.hh"
#include "link_between.hh"

namespace adrias::testbed
{
namespace
{

/** A representative mixed tick: local + remote, CPU + LLC pressure. */
std::vector<LoadDescriptor>
mixedLoads(double remote_demand)
{
    std::vector<LoadDescriptor> loads;
    LoadDescriptor local;
    local.id = 1;
    local.mode = MemoryMode::Local;
    local.cpuCores = 40.0;
    local.cpuFraction = 0.6;
    local.memDemandGBps = 9.0;
    local.cacheFootprintMb = 14.0;
    local.llcAccessGBps = 3.0;
    loads.push_back(local);

    LoadDescriptor remote;
    remote.id = 2;
    remote.mode = MemoryMode::Remote;
    remote.cpuCores = 30.0;
    remote.cpuFraction = 0.3;
    remote.memDemandGBps = remote_demand;
    remote.latencyBoundFraction = 0.4;
    remote.cacheFootprintMb = 10.0;
    remote.llcAccessGBps = 2.0;
    loads.push_back(remote);
    return loads;
}

TEST(PaperEquivalenceNoise, IdleLinksNeverPerturbNodeCounters)
{
    // One node with a second ThymesisFlow link that carries nothing:
    // links draw no counter noise, and the weighted
    // channel latency and flit sums reduce exactly to the single link's,
    // so node 0 reads bitwise what the paper pair reads.
    Topology wide("paper-pair-plus-idle-link");
    wide.addNode({"n0", {}});
    wide.addServer({"s0", 256.0, 15.0, {}});
    wide.addServer({"s1", 256.0, 15.0, {}});
    wide.addLink(0, 0, kThymesisFlowProfile);
    wide.addLink(0, 1, kThymesisFlowProfile);
    RackTestbed rack(wide.validate(), 42);
    Testbed paper(TestbedParams{}, 42);

    for (int t = 0; t < 6; ++t) {
        // Quiet, mid-ramp and saturated ticks.
        const auto loads = mixedLoads(0.05 + 0.4 * t);
        const TickResult expected = paper.tick(loads);
        const RackTickResult actual = rack.tick(loads);
        ASSERT_EQ(actual.outcomes.size(), expected.outcomes.size());
        for (std::size_t i = 0; i < loads.size(); ++i) {
            EXPECT_EQ(actual.outcomes[i].achievedGBps,
                      expected.outcomes[i].achievedGBps);
            EXPECT_EQ(actual.outcomes[i].slowdown,
                      expected.outcomes[i].slowdown);
        }
        for (std::size_t e = 0; e < kNumPerfEvents; ++e)
            EXPECT_EQ(actual.nodes[0].counters[e], expected.counters[e])
                << "tick " << t << " event " << e;
        EXPECT_EQ(actual.links[1].achievedGBps, 0.0);
    }
}

TEST(PaperEquivalenceEngine, PaperPairConfigIsBitwiseDefault)
{
    // A config naming "paper-pair" explicitly runs the same machine as
    // the default config, bit for bit.
    scenario::ScenarioConfig base;
    base.durationSec = 120;
    base.seed = 99;

    scenario::ScenarioConfig named = base;
    named.topology = "paper-pair";

    auto run = [](const scenario::ScenarioConfig &config) {
        scenario::ScenarioEngine engine(config);
        scenario::RandomPlacement policy(7);
        while (!engine.finished())
            engine.stepTick(policy);
        return engine.finish();
    };
    const scenario::ScenarioResult a = run(base);
    const scenario::ScenarioResult b = run(named);

    ASSERT_EQ(a.trace.size(), b.trace.size());
    for (std::size_t t = 0; t < a.trace.size(); ++t)
        for (std::size_t e = 0; e < kNumPerfEvents; ++e)
            EXPECT_EQ(a.trace[t][e], b.trace[t][e]);
    ASSERT_EQ(a.records.size(), b.records.size());
    for (std::size_t r = 0; r < a.records.size(); ++r) {
        EXPECT_EQ(a.records[r].id, b.records[r].id);
        EXPECT_EQ(a.records[r].mode, b.records[r].mode);
        EXPECT_EQ(a.records[r].execTimeSec, b.records[r].execTimeSec);
        EXPECT_EQ(a.records[r].meanSlowdown, b.records[r].meanSlowdown);
    }
    EXPECT_EQ(a.totalRemoteTrafficGB, b.totalRemoteTrafficGB);
}

TEST(PaperEquivalenceCluster, IndependentPairsMatchLegacyClusterShape)
{
    // "pairs-N", the K-node cluster, keeps its nodes fully isolated:
    // traffic on one pair never queues another.
    const Topology topo = Topology::independentPairs(2);
    RackTestbed rack(topo, 3);
    rack.setNoise(0.0);

    std::vector<LoadDescriptor> loads;
    LoadDescriptor heavy;
    heavy.id = 1;
    heavy.mode = MemoryMode::Remote;
    heavy.node = 0;
    heavy.server = 0;
    heavy.link = testutil::linkBetween(topo, 0, 0);
    heavy.memDemandGBps = 2.0;
    heavy.latencyBoundFraction = 0.0;
    loads.push_back(heavy);
    LoadDescriptor quiet = heavy;
    quiet.id = 2;
    quiet.node = 1;
    quiet.server = 1;
    quiet.link = testutil::linkBetween(topo, 1, 1);
    quiet.memDemandGBps = 0.05;
    loads.push_back(quiet);

    const auto result = rack.tick(loads);
    // Pair 0 saturates its ThymesisFlow link; pair 1 is untouched.
    EXPECT_GT(result.links[loads[0].link].queuedGBps, 0.0);
    EXPECT_DOUBLE_EQ(result.outcomes[1].achievedGBps, 0.05);
    EXPECT_DOUBLE_EQ(result.links[loads[1].link].queuedGBps, 0.0);
    EXPECT_DOUBLE_EQ(result.links[loads[1].link].latencyCycles,
                     kThymesisFlowProfile.latencyBaseCycles);
}

} // namespace
} // namespace adrias::testbed
