/** @file Tests for the multi-node cluster runner and naive policies. */

#include <gtest/gtest.h>

#include "core/schedulers.hh"
#include "scenario/cluster.hh"
#include "testbed/topology.hh"

namespace adrias::scenario
{
namespace
{

ScenarioConfig
shortConfig(std::uint64_t seed = 3, SimTime duration = 900)
{
    ScenarioConfig config;
    config.durationSec = duration;
    config.spawnMinSec = 5;
    config.spawnMaxSec = 15;
    config.seed = seed;
    return config;
}

/** The K-node cluster: K independent ThymesisFlow pairs. */
ClusterScenarioRunner
pairsRunner(std::size_t pairs, ScenarioConfig config)
{
    return ClusterScenarioRunner(testbed::Topology::independentPairs(pairs),
                                 config);
}

TEST(ClusterRunner, ValidatesConfig)
{
    EXPECT_THROW(pairsRunner(0, shortConfig()), std::runtime_error);
    ScenarioConfig bad = shortConfig();
    bad.durationSec = 0;
    EXPECT_THROW(pairsRunner(2, bad), std::runtime_error);
    ScenarioConfig bad_mix = shortConfig();
    bad_mix.ibenchFraction = 0.8;
    bad_mix.lcFraction = 0.4;
    EXPECT_THROW(pairsRunner(2, bad_mix), std::runtime_error);
}

TEST(ClusterRunner, PerNodeTracesCoverEveryTick)
{
    ClusterScenarioRunner runner = pairsRunner(3, shortConfig());
    RandomPlacement policy(5);
    const ClusterResult result = runner.run(policy);
    ASSERT_EQ(result.nodes.size(), 3u);
    for (const auto &node : result.nodes) {
        EXPECT_EQ(node.trace.size(), 900u);
        EXPECT_EQ(node.concurrency.size(), 900u);
    }
}

TEST(ClusterRunner, DeterministicForSameSeed)
{
    RandomPlacement policy_a(5), policy_b(5);
    const auto a = pairsRunner(2, shortConfig(9)).run(policy_a);
    const auto b = pairsRunner(2, shortConfig(9)).run(policy_b);
    EXPECT_DOUBLE_EQ(a.totalRemoteTrafficGB, b.totalRemoteTrafficGB);
    EXPECT_EQ(a.allRecords().size(), b.allRecords().size());
}

TEST(ClusterRunner, AllRecordsAggregatesNodes)
{
    ClusterScenarioRunner runner = pairsRunner(2, shortConfig(11));
    RandomPlacement policy(5);
    const ClusterResult result = runner.run(policy);
    std::size_t total = 0;
    for (const auto &node : result.nodes)
        total += node.records.size();
    EXPECT_EQ(result.allRecords().size(), total);
    EXPECT_GT(total, 0u);
}

TEST(ClusterRunner, RandomPolicySpreadsAcrossNodes)
{
    ClusterScenarioRunner runner = pairsRunner(4, shortConfig(13, 1500));
    RandomPlacement policy(5);
    const ClusterResult result = runner.run(policy);
    std::size_t nodes_used = 0;
    for (const auto &node : result.nodes)
        nodes_used += !node.records.empty();
    EXPECT_GE(nodes_used, 3u);
}

TEST(ClusterRunner, MoreNodesRaiseThroughput)
{
    // Same congested arrival stream: a bigger cluster completes at
    // least as many applications.
    ScenarioConfig congested = shortConfig(17, 1200);
    congested.spawnMinSec = 2;
    congested.spawnMaxSec = 6;
    congested.maxConcurrent = 12;

    auto completed = [&](std::size_t nodes) {
        ClusterScenarioRunner runner = pairsRunner(nodes, congested);
        core::AllLocalScheduler policy;
        return runner.run(policy).allRecords().size();
    };
    const std::size_t one = completed(1);
    const std::size_t four = completed(4);
    EXPECT_GT(four, one);
}

TEST(ClusterRunner, LeastLoadedBalances)
{
    ClusterScenarioRunner runner = pairsRunner(3, shortConfig(19, 1500));
    core::AllLocalScheduler policy;
    const ClusterResult result = runner.run(policy);
    std::vector<std::size_t> counts;
    for (const auto &node : result.nodes)
        counts.push_back(node.records.size());
    const auto [lo, hi] = std::minmax_element(counts.begin(),
                                              counts.end());
    ASSERT_GT(*lo, 0u);
    // Balanced within a factor of ~2 (arrival classes differ in size).
    EXPECT_LT(static_cast<double>(*hi) / static_cast<double>(*lo), 2.0);
}

TEST(ClusterRunner, LeastLoadedLocalNeverOffloads)
{
    ClusterScenarioRunner runner = pairsRunner(2, shortConfig(23));
    core::AllLocalScheduler policy;
    const ClusterResult result = runner.run(policy);
    for (const auto &entry : result.allRecords()) {
        if (entry.record->cls == WorkloadClass::Interference)
            continue; // trashers are placed randomly by the runner
        EXPECT_EQ(entry.record->mode, MemoryMode::Local);
    }
}

class BadPolicy : public ClusterPolicy
{
  public:
    std::string name() const override { return "bad"; }

    ClusterPlacement
    place(const workloads::WorkloadSpec &,
          const std::vector<NodeView> &, SimTime) override
    {
        return {99, MemoryMode::Local}; // invalid node
    }
};

TEST(ClusterRunner, InvalidNodeFromPolicyPanics)
{
    ClusterScenarioRunner runner = pairsRunner(2, shortConfig(29));
    BadPolicy policy;
    EXPECT_THROW(runner.run(policy), std::logic_error);
}

// ---------------------------------------------------------------------
// routeOnRack: the (node, mode) → (node, server, link) routing step.
// ---------------------------------------------------------------------

/** A 1×2 rack view with hand-set availability and link health. */
struct RouteFixture
{
    testbed::Topology topo = testbed::Topology::symmetric(
        1, 2, testbed::kCxlProfile, 64.0);
    RackView view;

    RouteFixture(double avail0, double avail1, double bw0 = 1.0,
                 double bw1 = 1.0)
    {
        view.topology = &topo;
        view.servers.resize(2);
        view.servers[0] = {64.0, avail0};
        view.servers[1] = {64.0, avail1};
        view.links.resize(2);
        view.links[0] = {0, 0, bw0, 1.0};
        view.links[1] = {0, 1, bw1, 1.0};
    }
};

workloads::WorkloadSpec
specWithFootprint(double gb)
{
    workloads::WorkloadSpec spec = workloads::sparkBenchmark("sort");
    spec.memoryFootprintGb = gb;
    return spec;
}

TEST(RouteOnRack, LocalPlacementPassesThrough)
{
    RouteFixture fix(10.0, 10.0);
    ClusterPlacement placement;
    placement.mode = MemoryMode::Local;
    placement.node = 0;
    const auto routed =
        routeOnRack(placement, specWithFootprint(4.0), fix.view);
    EXPECT_EQ(routed.mode, MemoryMode::Local);
    EXPECT_EQ(routed.node, 0u);
}

TEST(RouteOnRack, PicksServerWithMostAvailableCapacity)
{
    RouteFixture fix(10.0, 40.0);
    ClusterPlacement placement;
    placement.mode = MemoryMode::Remote;
    const auto routed =
        routeOnRack(placement, specWithFootprint(4.0), fix.view);
    EXPECT_EQ(routed.mode, MemoryMode::Remote);
    EXPECT_EQ(routed.server, 1u);
    EXPECT_EQ(routed.link, 1u);
}

TEST(RouteOnRack, BreaksAvailabilityTiesTowardLowestLink)
{
    RouteFixture fix(25.0, 25.0);
    ClusterPlacement placement;
    placement.mode = MemoryMode::Remote;
    const auto routed =
        routeOnRack(placement, specWithFootprint(4.0), fix.view);
    EXPECT_EQ(routed.server, 0u);
    EXPECT_EQ(routed.link, 0u);
}

TEST(RouteOnRack, SkipsUnhealthyLinks)
{
    RouteFixture fix(40.0, 10.0, /*bw0=*/0.02);
    ClusterPlacement placement;
    placement.mode = MemoryMode::Remote;
    const auto routed =
        routeOnRack(placement, specWithFootprint(4.0), fix.view);
    EXPECT_EQ(routed.mode, MemoryMode::Remote);
    EXPECT_EQ(routed.server, 1u);
}

TEST(RouteOnRack, SkipsServersWithoutRoom)
{
    RouteFixture fix(40.0, 10.0);
    ClusterPlacement placement;
    placement.mode = MemoryMode::Remote;
    // 20 GB fits only on server 0 despite both links being healthy.
    const auto routed =
        routeOnRack(placement, specWithFootprint(20.0), fix.view);
    EXPECT_EQ(routed.server, 0u);
}

TEST(RouteOnRack, DemotesToLocalWhenNoViableRoute)
{
    RouteFixture fix(1.0, 1.0);
    ClusterPlacement placement;
    placement.mode = MemoryMode::Remote;
    const auto routed =
        routeOnRack(placement, specWithFootprint(4.0), fix.view);
    EXPECT_EQ(routed.mode, MemoryMode::Local);
    EXPECT_EQ(routed.node, 0u);
}

TEST(RouteOnRack, MissingTopologyPanics)
{
    RackView empty;
    ClusterPlacement placement;
    placement.mode = MemoryMode::Remote;
    EXPECT_THROW(routeOnRack(placement, specWithFootprint(1.0), empty),
                 std::logic_error);
}

// ---------------------------------------------------------------------
// The rack-model cluster runner.
// ---------------------------------------------------------------------

TEST(RackClusterRunner, ValidatesConfig)
{
    ScenarioConfig bad = shortConfig();
    bad.durationSec = 0;
    EXPECT_THROW(ClusterScenarioRunner(
                     testbed::topologyByName("rack-2x2-cxl"), bad),
                 std::runtime_error);
    ScenarioConfig bad_spawn = shortConfig();
    bad_spawn.spawnMinSec = 0;
    EXPECT_THROW(ClusterScenarioRunner(
                     testbed::topologyByName("rack-2x2-cxl"), bad_spawn),
                 std::runtime_error);
}

TEST(RackClusterRunner, TracksTopologyNameAndLinkTotals)
{
    const testbed::Topology topo =
        testbed::topologyByName("rack-2x2-cxl");
    ClusterScenarioRunner runner(topo, shortConfig(37));
    RandomPlacement policy(5);
    const ClusterResult result = runner.run(policy);

    EXPECT_EQ(result.topologyName, "rack-2x2-cxl");
    ASSERT_EQ(result.nodes.size(), 2u);
    for (const auto &node : result.nodes) {
        EXPECT_EQ(node.trace.size(), 900u);
        EXPECT_EQ(node.concurrency.size(), 900u);
    }
    ASSERT_EQ(result.linkTotals.size(), topo.linkCount());
    double delivered = 0.0;
    for (const auto &totals : result.linkTotals) {
        EXPECT_NEAR(totals.offeredGb,
                    totals.deliveredGb + totals.queuedGb,
                    1e-6 + 1e-9 * totals.offeredGb);
        delivered += totals.deliveredGb;
    }
    EXPECT_GT(delivered, 0.0);
    EXPECT_GT(result.allRecords().size(), 0u);
}

TEST(RackClusterRunner, TinyConcurrencyCapDropsArrivals)
{
    ScenarioConfig congested = shortConfig(41);
    congested.spawnMinSec = 1;
    congested.spawnMaxSec = 2;
    congested.maxConcurrent = 1;
    ClusterScenarioRunner runner(
        testbed::topologyByName("rack-2x2-cxl"), congested);
    RandomPlacement policy(5);
    const ClusterResult result = runner.run(policy);
    EXPECT_GT(result.droppedArrivals, 0u);
}

/** Ignores rack state entirely: always (n0, Remote, s0, link 0). */
class StubbornRemotePolicy : public ClusterPolicy
{
  public:
    std::string name() const override { return "stubborn-remote"; }

    ClusterPlacement
    place(const workloads::WorkloadSpec &,
          const std::vector<NodeView> &, SimTime) override
    {
        ClusterPlacement placement;
        placement.mode = MemoryMode::Remote;
        return placement;
    }

    ClusterPlacement
    placeRack(const workloads::WorkloadSpec &spec,
              const std::vector<NodeView> &nodes, const RackView &,
              SimTime now) override
    {
        return place(spec, nodes, now);
    }
};

TEST(RackClusterRunner, CapacityExhaustionCountsRemoteFallbacks)
{
    // One 6 GB server: a policy that insists on remote placements must
    // be demoted to the local pool once the server fills, and the
    // runner counts every demotion.
    testbed::Topology topo("tiny");
    topo.addNode({"n0", {}});
    topo.addServer({"s0", 6.0, 15.0, {}});
    topo.addLink(0, 0, testbed::kCxlProfile);
    topo.validate();

    ScenarioConfig config = shortConfig(43);
    config.ibenchFraction = 0.0; // every arrival goes through the policy
    ClusterScenarioRunner runner(topo, config);
    StubbornRemotePolicy policy;
    const ClusterResult result = runner.run(policy);

    EXPECT_GT(result.remoteFallbacks, 0u);
    std::size_t local_records = 0;
    for (const auto &entry : result.allRecords())
        local_records += entry.record->mode == MemoryMode::Local;
    EXPECT_GT(local_records, 0u);
}

/** Returns a link that does not connect its claimed endpoints. */
class BadLinkPolicy : public StubbornRemotePolicy
{
  public:
    ClusterPlacement
    placeRack(const workloads::WorkloadSpec &,
              const std::vector<NodeView> &, const RackView &,
              SimTime) override
    {
        ClusterPlacement placement;
        placement.mode = MemoryMode::Remote;
        placement.node = 0;
        placement.server = 0;
        placement.link = 99;
        return placement;
    }
};

TEST(RackClusterRunner, InvalidLinkFromPolicyPanics)
{
    ScenarioConfig config = shortConfig(47);
    config.ibenchFraction = 0.0;
    ClusterScenarioRunner runner(
        testbed::topologyByName("rack-2x2-cxl"), config);
    BadLinkPolicy policy;
    EXPECT_THROW(runner.run(policy), std::logic_error);
}

TEST(RackClusterRunner, DisconnectedLinkTriplePanics)
{
    // Link 1 of the 2x2 rack is n0-s1: claiming it reaches s0 is a
    // policy bug the runner must refuse to simulate.
    class MismatchedPolicy : public StubbornRemotePolicy
    {
      public:
        ClusterPlacement
        placeRack(const workloads::WorkloadSpec &,
                  const std::vector<NodeView> &, const RackView &,
                  SimTime) override
        {
            ClusterPlacement placement;
            placement.mode = MemoryMode::Remote;
            placement.node = 0;
            placement.server = 0;
            placement.link = 1;
            return placement;
        }
    };
    ScenarioConfig config = shortConfig(53);
    config.ibenchFraction = 0.0;
    ClusterScenarioRunner runner(
        testbed::topologyByName("rack-2x2-cxl"), config);
    MismatchedPolicy policy;
    EXPECT_THROW(runner.run(policy), std::logic_error);
}

} // namespace
} // namespace adrias::scenario
