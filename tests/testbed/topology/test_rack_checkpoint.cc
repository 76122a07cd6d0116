/**
 * @file
 * Checkpoint round-trip tests on rack topologies: RackTestbed state
 * (noise RNG, link faults, allocations, link totals), the Watcher's
 * schema, the scenario engine's topology stamp, and a rack run resumed
 * from a mid-run engine snapshot.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/io/binary.hh"
#include "core/schedulers.hh"
#include "scenario/engine.hh"
#include "telemetry/watcher.hh"
#include "testbed/rack.hh"
#include "testbed/topology.hh"
#include "topology_under_test.hh"
#include "link_between.hh"

namespace adrias::testbed
{
namespace
{

LoadDescriptor
rackLoad(std::size_t node, std::size_t server, std::size_t link,
         double demand_gbps, DeploymentId id)
{
    LoadDescriptor load;
    load.id = id;
    load.mode = MemoryMode::Remote;
    load.node = node;
    load.server = server;
    load.link = link;
    load.memDemandGBps = demand_gbps;
    return load;
}

/** A mixed workload touching several nodes/links of the 4x4 rack. */
std::vector<LoadDescriptor>
mixed4x4Loads(const Topology &topo)
{
    std::vector<LoadDescriptor> loads;
    loads.push_back(rackLoad(0, 0, testutil::linkBetween(topo, 0, 0), 3.0, 1));
    loads.push_back(rackLoad(1, 1, testutil::linkBetween(topo, 1, 1), 5.0, 2));
    loads.push_back(rackLoad(3, 2, testutil::linkBetween(topo, 3, 2), 2.0, 3));
    LoadDescriptor local;
    local.id = 4;
    local.mode = MemoryMode::Local;
    local.node = 2;
    local.memDemandGBps = 6.0;
    loads.push_back(local);
    return loads;
}

void
expectIdenticalTicks(const RackTickResult &a, const RackTickResult &b)
{
    ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
    for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
        EXPECT_EQ(a.outcomes[i].achievedGBps, b.outcomes[i].achievedGBps);
        EXPECT_EQ(a.outcomes[i].slowdown, b.outcomes[i].slowdown);
        EXPECT_EQ(a.outcomes[i].latencyNs, b.outcomes[i].latencyNs);
    }
    ASSERT_EQ(a.nodes.size(), b.nodes.size());
    for (std::size_t n = 0; n < a.nodes.size(); ++n)
        for (std::size_t e = 0; e < kNumPerfEvents; ++e)
            EXPECT_EQ(a.nodes[n].counters[e], b.nodes[n].counters[e]);
    ASSERT_EQ(a.links.size(), b.links.size());
    for (std::size_t l = 0; l < a.links.size(); ++l)
        EXPECT_EQ(a.links[l].latencyCycles, b.links[l].latencyCycles);
}

TEST(RackCheckpoint, RoundTripOnAsymmetricRackReproducesTicks)
{
    const Topology topo = Topology::asymmetric4x4();
    const auto loads = mixed4x4Loads(topo);

    // A run with noise, faults and live allocations — every piece of
    // evolving RackTestbed state is exercised.
    RackTestbed original(topo, 42);
    original.setNoise(0.02);
    original.setLinkFault(testutil::linkBetween(topo, 1, 1), 0.6, 1.5);
    ASSERT_TRUE(original.allocate(0, 100.0).ok());
    ASSERT_TRUE(original.allocate(2, 16.0).ok());
    for (int t = 0; t < 3; ++t)
        original.tick(loads);

    io::BinaryWriter out;
    original.saveState(out);

    // The restoring process rebuilds the rack from configuration (the
    // topology) with a different seed; the payload overrides it.
    RackTestbed restored(topo, 7777);
    io::BinaryReader in(out.data());
    ASSERT_TRUE(restored.restoreState(in).ok());

    EXPECT_EQ(restored.allocatedGb(0), 100.0);
    EXPECT_EQ(restored.allocatedGb(2), 16.0);
    for (std::size_t l = 0; l < topo.linkCount(); ++l) {
        EXPECT_EQ(restored.linkBwFault(l), original.linkBwFault(l));
        EXPECT_EQ(restored.linkLatencyFault(l), original.linkLatencyFault(l));
        EXPECT_EQ(restored.linkTotals(l).offeredGb,
                  original.linkTotals(l).offeredGb);
        EXPECT_EQ(restored.linkTotals(l).deliveredGb,
                  original.linkTotals(l).deliveredGb);
        EXPECT_EQ(restored.linkTotals(l).queuedGb,
                  original.linkTotals(l).queuedGb);
        EXPECT_EQ(restored.linkTotals(l).saturatedTicks,
                  original.linkTotals(l).saturatedTicks);
    }

    // The noise RNG resumes at the exact stream position: subsequent
    // ticks are bitwise identical, noisy counters included.
    for (int t = 0; t < 3; ++t)
        expectIdenticalTicks(original.tick(loads), restored.tick(loads));
}

TEST(RackCheckpoint, RestoreIntoDifferentTopologyIsGeometryError)
{
    RackTestbed original(Topology::asymmetric4x4(), 42);
    original.tick(mixed4x4Loads(original.topology()));
    io::BinaryWriter out;
    original.saveState(out);

    RackTestbed other(Topology::symmetric(2, 2, kCxlProfile), 42);
    io::BinaryReader in(out.data());
    const auto status = other.restoreState(in);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.error().code, ErrorCode::Geometry);
}

TEST(RackCheckpoint, TruncatedSnapshotIsRejected)
{
    RackTestbed original(Topology::asymmetric4x4(), 42);
    io::BinaryWriter out;
    original.saveState(out);

    const std::string &payload = out.data();
    for (std::size_t cut : {payload.size() / 4, payload.size() / 2,
                            payload.size() - 4}) {
        RackTestbed target(Topology::asymmetric4x4(), 1);
        io::BinaryReader in(std::string_view(payload.data(), cut));
        EXPECT_FALSE(target.restoreState(in).ok()) << "cut=" << cut;
    }
}

TEST(RackCheckpoint, WatcherWithoutLinksKeepsLegacySchema)
{
    // Rack runs keep one node-sample Watcher per node: the payload is
    // the paper-pair schema, whatever the topology.
    telemetry::Watcher watcher(16);
    testbed::CounterSample sample{};
    sample[1] = 3.0;
    watcher.record(sample);

    io::BinaryWriter out;
    watcher.saveState(out);
    telemetry::Watcher restored(16);
    io::BinaryReader in(out.data());
    ASSERT_TRUE(restored.restoreState(in).ok());
    EXPECT_EQ(restored.sampleCount(), 1u);
    EXPECT_EQ(restored.latest()[1], 3.0);
}

TEST(RackCheckpoint, EngineSnapshotCarriesTopologyStamp)
{
    scenario::ScenarioConfig config;
    config.durationSec = 40;
    config.seed = 11;
    config.counterNoise = 0.0;

    scenario::ScenarioEngine engine(config);
    scenario::RandomPlacement policy(5);
    for (int t = 0; t < 10; ++t)
        engine.stepTick(policy);

    io::BinaryWriter out;
    engine.saveState(out);

    // Same topology: restore succeeds.
    scenario::ScenarioEngine same(config);
    io::BinaryReader in_same(out.data());
    EXPECT_TRUE(same.restoreState(in_same).ok());

    // A single-node rack topology is a valid engine config, but a
    // paper-pair snapshot must not silently restore onto it.
    scenario::ScenarioConfig other_config = config;
    other_config.topology = "pairs-1";
    scenario::ScenarioEngine other(other_config);
    io::BinaryReader in_other(out.data());
    const auto status = other.restoreState(in_other);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.error().code, ErrorCode::Geometry);
}

TEST(RackCheckpoint, EngineRejectsUnknownTopology)
{
    scenario::ScenarioConfig unknown;
    unknown.topology = "no-such-rack";
    EXPECT_THROW(scenario::ScenarioEngine engine(unknown),
                 std::runtime_error);
}

void
expectBitwiseEqualRecords(const scenario::DeploymentRecord &a,
                          const scenario::DeploymentRecord &b)
{
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.mode, b.mode);
    EXPECT_EQ(a.arrival, b.arrival);
    EXPECT_EQ(a.completion, b.completion);
    EXPECT_EQ(a.execTimeSec, b.execTimeSec);
    EXPECT_EQ(a.p99Ms, b.p99Ms);
    EXPECT_EQ(a.meanSlowdown, b.meanSlowdown);
    EXPECT_EQ(a.remoteTrafficGB, b.remoteTrafficGB);
    ASSERT_EQ(a.historyWindow.size(), b.historyWindow.size());
    for (std::size_t i = 0; i < a.historyWindow.size(); ++i)
        EXPECT_EQ(a.historyWindow[i].raw(), b.historyWindow[i].raw());
    ASSERT_EQ(a.executionWindow.size(), b.executionWindow.size());
    for (std::size_t i = 0; i < a.executionWindow.size(); ++i)
        EXPECT_EQ(a.executionWindow[i].raw(), b.executionWindow[i].raw());
}

TEST(RackCheckpoint, EngineSnapshotResumesRackRunBitwise)
{
    // Snapshot a congested rack run mid-way, restore it into a fresh
    // engine and finish there: the result must be the uninterrupted
    // run's, bit for bit.
    const Topology topo = topologyByName(topologyUnderTest());
    scenario::ScenarioConfig config;
    config.durationSec = 400;
    config.spawnMinSec = 1;
    config.spawnMaxSec = 4;
    config.maxConcurrent = 6;
    config.seed = 909;

    core::LeastLoadedRemotePolicy policy;
    const scenario::ClusterResult expected =
        scenario::ClusterScenarioRunner(topo, config).run(policy);

    scenario::ScenarioEngine first(topo, config);
    while (first.now() < 170)
        first.stepTick(policy);
    io::BinaryWriter out;
    first.saveState(out);

    scenario::ScenarioEngine resumed(topo, config);
    io::BinaryReader in(out.data());
    ASSERT_TRUE(resumed.restoreState(in).ok());
    EXPECT_EQ(resumed.now(), 170);
    while (!resumed.finished())
        resumed.stepTick(policy);
    const scenario::ClusterResult actual = resumed.finishCluster();

    EXPECT_GT(expected.droppedArrivals, 0u);
    EXPECT_EQ(actual.topologyName, expected.topologyName);
    EXPECT_EQ(actual.droppedArrivals, expected.droppedArrivals);
    EXPECT_EQ(actual.remoteFallbacks, expected.remoteFallbacks);
    EXPECT_EQ(actual.totalRemoteTrafficGB, expected.totalRemoteTrafficGB);
    ASSERT_EQ(actual.linkTotals.size(), expected.linkTotals.size());
    for (std::size_t l = 0; l < actual.linkTotals.size(); ++l) {
        EXPECT_EQ(actual.linkTotals[l].offeredGb,
                  expected.linkTotals[l].offeredGb);
        EXPECT_EQ(actual.linkTotals[l].deliveredGb,
                  expected.linkTotals[l].deliveredGb);
        EXPECT_EQ(actual.linkTotals[l].queuedGb,
                  expected.linkTotals[l].queuedGb);
        EXPECT_EQ(actual.linkTotals[l].saturatedTicks,
                  expected.linkTotals[l].saturatedTicks);
    }
    ASSERT_EQ(actual.nodes.size(), expected.nodes.size());
    for (std::size_t n = 0; n < actual.nodes.size(); ++n) {
        const scenario::ScenarioResult &a = actual.nodes[n];
        const scenario::ScenarioResult &b = expected.nodes[n];
        EXPECT_EQ(a.trace, b.trace) << "node " << n;
        EXPECT_EQ(a.concurrency, b.concurrency) << "node " << n;
        EXPECT_EQ(a.totalRemoteTrafficGB, b.totalRemoteTrafficGB);
        EXPECT_EQ(a.watcherHealth.samplesAccepted,
                  b.watcherHealth.samplesAccepted);
        ASSERT_EQ(a.records.size(), b.records.size()) << "node " << n;
        for (std::size_t r = 0; r < a.records.size(); ++r)
            expectBitwiseEqualRecords(a.records[r], b.records[r]);
    }
}

} // namespace
} // namespace adrias::testbed
