/** @file Tests for the cluster-level Adrias orchestrator (§VII). */

#include <gtest/gtest.h>

#include "core/adrias.hh"
#include "core/schedulers.hh"
#include "counting_predictor.hh"
#include "testbed/topology.hh"

namespace adrias::core
{
namespace
{

using scenario::ClusterScenarioRunner;
using scenario::ScenarioConfig;

class ClusterOrchestratorTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        AdriasStack::BuildOptions options;
        options.scenarios = 3;
        options.scenarioDurationSec = 1500;
        options.seed = 1700;
        options.model.epochs = 18;
        options.model.hidden = 16;
        options.model.headWidth = 24;
        stack = new AdriasStack(options);
    }

    static void
    TearDownTestSuite()
    {
        delete stack;
    }

    static ScenarioConfig
    evalConfig(std::uint64_t seed)
    {
        ScenarioConfig config;
        config.durationSec = 1200;
        config.spawnMinSec = 3;
        config.spawnMaxSec = 12;
        config.seed = seed;
        return config;
    }

    static AdriasStack *stack;
};

AdriasStack *ClusterOrchestratorTest::stack = nullptr;

TEST(ClusterCallShape, OneBatchPerDecisionTwoRowsPerWarmNode)
{
    // Node 1 is cold; nodes 0 and 2 carry different telemetry.
    testbed::Testbed idle_bed, busy_bed;
    idle_bed.setNoise(0.0);
    busy_bed.setNoise(0.0);
    const std::vector<testbed::LoadDescriptor> loads{
        workloads::ibenchSpec(workloads::IBenchKind::MemBw)
            .toLoad(0, MemoryMode::Remote)};
    telemetry::Watcher w0(200), w1(200), w2(200);
    for (int t = 0; t < 150; ++t) {
        w0.record(idle_bed.tick({}).counters);
        w2.record(busy_bed.tick(loads).counters);
    }
    std::vector<scenario::NodeView> nodes{{&w0, 3}, {&w1, 0}, {&w2, 1}};

    CountingPredictor predictor;
    scenario::SignatureStore store;
    const auto &be = workloads::sparkBenchmark("sort");
    const auto &lc = workloads::redisSpec();
    store.put(be.name, decisionWindow(w0));
    store.put(lc.name, decisionWindow(w2));
    AdriasClusterOrchestrator orchestrator(predictor, store, {});

    const std::vector<MemoryMode> modes{MemoryMode::Local,
                                        MemoryMode::Remote,
                                        MemoryMode::Local,
                                        MemoryMode::Remote};
    std::size_t decisions = 0;
    for (const workloads::WorkloadSpec *spec : {&be, &lc, &be}) {
        orchestrator.place(*spec, nodes, 150);
        ++decisions;
        ASSERT_EQ(predictor.batches.size(), decisions);
        const CountingPredictor::BatchCall &call = predictor.batches.back();
        EXPECT_EQ(call.cls, spec->cls);
        EXPECT_EQ(call.modes, modes);
        EXPECT_EQ(call.historySlot,
                  (std::vector<std::size_t>{0, 0, 1, 1}));
        ASSERT_EQ(call.histories.size(), 2u);
        EXPECT_TRUE(sameWindow(call.histories[0], decisionWindow(w0)));
        EXPECT_TRUE(sameWindow(call.histories[1], decisionWindow(w2)));
        ASSERT_EQ(call.signatures.size(), 1u);
        EXPECT_EQ(call.signatures[0], &store.get(spec->name));
    }
    EXPECT_EQ(predictor.singleCalls, 0u);

    // An all-cold cluster is a rule decision: no query at all.
    telemetry::Watcher c0(16), c1(16);
    std::vector<scenario::NodeView> cold{{&c0, 2}, {&c1, 1}};
    EXPECT_EQ(orchestrator.place(be, cold, 0).mode, MemoryMode::Local);
    EXPECT_EQ(predictor.batches.size(), decisions);
}

TEST_F(ClusterOrchestratorTest, RequiresTrainedPredictorAndSaneBeta)
{
    models::Predictor untrained;
    scenario::SignatureStore store;
    EXPECT_THROW(
        AdriasClusterOrchestrator(untrained, store, AdriasConfig{}),
        std::runtime_error);

    AdriasConfig bad;
    bad.beta = -1.0;
    EXPECT_THROW(AdriasClusterOrchestrator(stack->predictor(),
                                           stack->signatures(), bad),
                 std::runtime_error);
}

TEST_F(ClusterOrchestratorTest, NameEncodesBeta)
{
    AdriasConfig config;
    config.beta = 0.8;
    AdriasClusterOrchestrator orchestrator(stack->predictor(),
                                           stack->signatures(), config);
    EXPECT_EQ(orchestrator.name(), "adrias-cluster-b0.8");
}

TEST_F(ClusterOrchestratorTest, UnknownAppBootstrapsOnLeastLoaded)
{
    AdriasClusterOrchestrator orchestrator(stack->predictor(),
                                           stack->signatures(), {});
    telemetry::Watcher w0(16), w1(16);
    std::vector<scenario::NodeView> nodes{{&w0, 5}, {&w1, 2}};
    workloads::WorkloadSpec novel = workloads::sparkBenchmark("sort");
    novel.name = "never-seen";
    const auto placement =
        orchestrator.place(novel, nodes, 0);
    EXPECT_EQ(placement.node, 1u);
    EXPECT_EQ(placement.mode, MemoryMode::Remote);
}

TEST_F(ClusterOrchestratorTest, ColdClusterFallsBackToLeastLoadedLocal)
{
    AdriasClusterOrchestrator orchestrator(stack->predictor(),
                                           stack->signatures(), {});
    telemetry::Watcher w0(16), w1(16);
    std::vector<scenario::NodeView> nodes{{&w0, 4}, {&w1, 1}};
    const auto placement = orchestrator.place(
        workloads::sparkBenchmark("sort"), nodes, 0);
    EXPECT_EQ(placement.node, 1u);
    EXPECT_EQ(placement.mode, MemoryMode::Local);
}

TEST_F(ClusterOrchestratorTest, PrefersQuietNodeForBestEffort)
{
    AdriasClusterOrchestrator orchestrator(stack->predictor(),
                                           stack->signatures(), {});

    // Node 0: heavily congested telemetry; node 1: idle telemetry.
    testbed::Testbed busy_bed, idle_bed;
    busy_bed.setNoise(0.0);
    idle_bed.setNoise(0.0);
    telemetry::Watcher busy(200), idle(200);
    std::vector<testbed::LoadDescriptor> heavy_loads;
    for (int i = 0; i < 12; ++i)
        heavy_loads.push_back(
            workloads::ibenchSpec(workloads::IBenchKind::MemBw)
                .toLoad(static_cast<DeploymentId>(i),
                        MemoryMode::Remote));
    for (int t = 0; t < 150; ++t) {
        busy.record(busy_bed.tick(heavy_loads).counters);
        idle.record(idle_bed.tick({}).counters);
    }

    std::vector<scenario::NodeView> nodes{{&busy, 12}, {&idle, 12}};
    const auto placement = orchestrator.place(
        workloads::sparkBenchmark("lr"), nodes, 200);
    EXPECT_EQ(placement.node, 1u);
}

TEST_F(ClusterOrchestratorTest, EndToEndComparableToLeastLoaded)
{
    // The cluster orchestrator must not lose to the load-balancing
    // baseline on median BE performance while actually using remote
    // memory.
    AdriasConfig config;
    config.beta = 0.8;
    config.defaultQosP99Ms = 5.0;
    AdriasClusterOrchestrator adrias(stack->predictor(),
                                     stack->signatures(), config);
    scenario::LeastLoadedLocalPolicy baseline;

    auto be_median_and_offloads =
        [&](scenario::ClusterPolicy &policy) {
            ClusterScenarioRunner runner(
                testbed::Topology::independentPairs(3), evalConfig(1801));
            const auto result = runner.run(policy);
            std::vector<double> times;
            std::size_t offloads = 0;
            for (const auto &entry : result.allRecords()) {
                if (entry.record->cls != WorkloadClass::BestEffort)
                    continue;
                times.push_back(entry.record->execTimeSec);
                offloads += entry.record->mode == MemoryMode::Remote;
            }
            return std::pair<double, std::size_t>(
                stats::quantile(times, 0.5), offloads);
        };

    const auto [adrias_median, adrias_offloads] =
        be_median_and_offloads(adrias);
    const auto [baseline_median, baseline_offloads] =
        be_median_and_offloads(baseline);
    (void)baseline_offloads;
    EXPECT_LT(adrias_median, baseline_median * 1.25);
    EXPECT_GT(adrias_offloads, 0u);
}

// ---------------------------------------------------------------------
// Rack-aware placement (placeRack) across 1×1, 2×2, 4×4 and degenerate
// topologies.
// ---------------------------------------------------------------------

/** A rack view over `topo` with every server fully available and every
 *  link healthy; tests then poke individual entries. */
scenario::RackView
fullView(const testbed::Topology &topo)
{
    scenario::RackView view;
    view.topology = &topo;
    view.servers.resize(topo.serverCount());
    for (std::size_t s = 0; s < topo.serverCount(); ++s) {
        view.servers[s].capacityGb = topo.server(s).capacityGb;
        view.servers[s].availableGb = topo.server(s).capacityGb;
    }
    view.links.resize(topo.linkCount());
    for (std::size_t l = 0; l < topo.linkCount(); ++l) {
        view.links[l].node = topo.link(l).node;
        view.links[l].server = topo.link(l).server;
    }
    return view;
}

/** An app the signature store has never seen: the orchestrator's
 *  bootstrap path deterministically prefers Remote on the least-loaded
 *  node, giving placeRack a Remote decision to route. */
workloads::WorkloadSpec
novelSpec(double footprint_gb = 4.0)
{
    workloads::WorkloadSpec spec = workloads::sparkBenchmark("sort");
    spec.name = "never-seen-rack";
    spec.memoryFootprintGb = footprint_gb;
    return spec;
}

TEST_F(ClusterOrchestratorTest, PlaceRackRoutesPaperPairSingleLink)
{
    AdriasClusterOrchestrator orchestrator(stack->predictor(),
                                           stack->signatures(), {});
    const testbed::Topology topo = testbed::Topology::paperPair();
    telemetry::Watcher w0(16);
    std::vector<scenario::NodeView> nodes{{&w0, 0}};
    const auto placement = orchestrator.placeRack(
        novelSpec(), nodes, fullView(topo), 0);
    EXPECT_EQ(placement.node, 0u);
    EXPECT_EQ(placement.mode, MemoryMode::Remote);
    EXPECT_EQ(placement.server, 0u);
    EXPECT_EQ(placement.link, 0u);
}

TEST_F(ClusterOrchestratorTest, PlaceRackPrefersRoomiestServer)
{
    AdriasClusterOrchestrator orchestrator(stack->predictor(),
                                           stack->signatures(), {});
    const testbed::Topology topo = testbed::Topology::symmetric(
        2, 2, testbed::kCxlProfile, 128.0);
    telemetry::Watcher w0(16), w1(16);
    std::vector<scenario::NodeView> nodes{{&w0, 1}, {&w1, 5}};

    scenario::RackView view = fullView(topo);
    view.servers[0].availableGb = 10.0;
    view.servers[1].availableGb = 90.0;
    const auto placement =
        orchestrator.placeRack(novelSpec(), nodes, view, 0);
    EXPECT_EQ(placement.node, 0u); // least loaded
    EXPECT_EQ(placement.mode, MemoryMode::Remote);
    EXPECT_EQ(placement.server, 1u);
    EXPECT_EQ(placement.link,
              static_cast<std::size_t>(topo.linkBetween(0, 1)));
}

TEST_F(ClusterOrchestratorTest, PlaceRackRetriesSurvivingNodesInLoadOrder)
{
    AdriasClusterOrchestrator orchestrator(stack->predictor(),
                                           stack->signatures(), {});
    const testbed::Topology topo = testbed::Topology::symmetric(
        3, 2, testbed::kCxlProfile, 128.0);
    telemetry::Watcher w0(16), w1(16), w2(16);
    // Node 0 is predicted-best (least loaded) but loses both links;
    // node 2 is the least-loaded survivor and must win over node 1.
    std::vector<scenario::NodeView> nodes{{&w0, 0}, {&w1, 6}, {&w2, 2}};

    scenario::RackView view = fullView(topo);
    for (std::size_t l : topo.linksFrom(0))
        view.links[l].bwScale = 0.01;
    const auto placement =
        orchestrator.placeRack(novelSpec(), nodes, view, 0);
    EXPECT_EQ(placement.mode, MemoryMode::Remote);
    EXPECT_EQ(placement.node, 2u);
}

TEST_F(ClusterOrchestratorTest, PlaceRackDegradesToLocalWhenRackExhausted)
{
    AdriasClusterOrchestrator orchestrator(stack->predictor(),
                                           stack->signatures(), {});
    const testbed::Topology topo = testbed::Topology::symmetric(
        2, 2, testbed::kCxlProfile, 128.0);
    telemetry::Watcher w0(16), w1(16);
    std::vector<scenario::NodeView> nodes{{&w0, 1}, {&w1, 3}};

    // Every server drained below the footprint: no node has a route.
    scenario::RackView view = fullView(topo);
    view.servers[0].availableGb = 0.5;
    view.servers[1].availableGb = 0.5;
    const auto placement =
        orchestrator.placeRack(novelSpec(4.0), nodes, view, 0);
    EXPECT_EQ(placement.mode, MemoryMode::Local);
    EXPECT_EQ(placement.node, 0u); // keeps the predicted-best node
}

TEST_F(ClusterOrchestratorTest, PlaceRackAvoidsDrainedServerOn4x4)
{
    AdriasClusterOrchestrator orchestrator(stack->predictor(),
                                           stack->signatures(), {});
    const testbed::Topology topo = testbed::Topology::asymmetric4x4();
    telemetry::Watcher w0(16), w1(16), w2(16), w3(16);
    // Node 0 reaches all four servers, including the drained s3.
    std::vector<scenario::NodeView> nodes{
        {&w0, 0}, {&w1, 4}, {&w2, 4}, {&w3, 4}};
    const auto placement = orchestrator.placeRack(
        novelSpec(), nodes, fullView(topo), 0);
    EXPECT_EQ(placement.node, 0u);
    EXPECT_EQ(placement.mode, MemoryMode::Remote);
    EXPECT_NE(placement.server, 3u); // zero-capacity server never lends
    EXPECT_EQ(placement.server, 0u); // s0 has the most available room
}

TEST_F(ClusterOrchestratorTest, PlaceRackLocalDecisionSkipsRouting)
{
    // A known app against cold telemetry falls back to least-loaded
    // *local*; placeRack must pass that decision through untouched.
    AdriasClusterOrchestrator orchestrator(stack->predictor(),
                                           stack->signatures(), {});
    const testbed::Topology topo = testbed::Topology::symmetric(
        2, 2, testbed::kCxlProfile, 128.0);
    telemetry::Watcher w0(16), w1(16);
    std::vector<scenario::NodeView> nodes{{&w0, 4}, {&w1, 1}};
    const auto placement = orchestrator.placeRack(
        workloads::sparkBenchmark("sort"), nodes, fullView(topo), 0);
    EXPECT_EQ(placement.mode, MemoryMode::Local);
    EXPECT_EQ(placement.node, 1u);
}

TEST_F(ClusterOrchestratorTest, DefaultPolicyRoutingDemotesWithoutRetry)
{
    // The base-class placeRack (LeastLoadedRemotePolicy) routes on the
    // chosen node only: when that node's links die it demotes to Local
    // instead of retrying other nodes — the orchestrator's retry is a
    // genuine improvement over the baseline.
    LeastLoadedRemotePolicy baseline;
    const testbed::Topology topo = testbed::Topology::symmetric(
        2, 2, testbed::kCxlProfile, 128.0);
    telemetry::Watcher w0(16), w1(16);
    std::vector<scenario::NodeView> nodes{{&w0, 0}, {&w1, 5}};

    scenario::RackView view = fullView(topo);
    for (std::size_t l : topo.linksFrom(0))
        view.links[l].bwScale = 0.01;
    const auto placement = baseline.placeRack(
        workloads::sparkBenchmark("sort"), nodes, view, 0);
    EXPECT_EQ(placement.mode, MemoryMode::Local);
    EXPECT_EQ(placement.node, 0u);
}

} // namespace
} // namespace adrias::core
