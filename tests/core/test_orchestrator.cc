/**
 * @file
 * Tests for the Adrias orchestrator — on the paper's one-node rack and
 * on wider racks (§VII) — and for the baseline schedulers.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "core/adrias.hh"
#include "counting_predictor.hh"
#include "testbed/topology.hh"
#include "../testbed/topology/link_between.hh"

namespace adrias::core
{
namespace
{

using scenario::ClusterScenarioRunner;
using scenario::NodeView;
using scenario::ScenarioConfig;
using scenario::ScenarioRunner;

/** A trained stack per seed, built once per process (training is the
 *  cost) and shared by the one-node and the rack suites. */
AdriasStack &
trainedStack(std::uint64_t seed)
{
    static std::map<std::uint64_t, std::unique_ptr<AdriasStack>> stacks;
    std::unique_ptr<AdriasStack> &slot = stacks[seed];
    if (!slot) {
        AdriasStack::BuildOptions options;
        options.scenarios = 3;
        options.scenarioDurationSec = 1500;
        options.seed = seed;
        options.model.epochs = 18;
        options.model.hidden = 16;
        options.model.headWidth = 24;
        slot = std::make_unique<AdriasStack>(options);
    }
    return *slot;
}

class OrchestratorTest : public ::testing::Test
{
  protected:
    static void SetUpTestSuite() { stack = &trainedStack(700); }

    static ScenarioConfig
    evalConfig(std::uint64_t seed)
    {
        ScenarioConfig config;
        config.durationSec = 1200;
        config.spawnMinSec = 5;
        config.spawnMaxSec = 25;
        config.seed = seed;
        return config;
    }

    static AdriasStack *stack;
};

AdriasStack *OrchestratorTest::stack = nullptr;

/** Rack cases: their own stack, under a congested arrival stream. */
class ClusterOrchestratorTest : public OrchestratorTest
{
  protected:
    static void SetUpTestSuite() { stack = &trainedStack(1700); }

    static ScenarioConfig
    evalConfig(std::uint64_t seed)
    {
        ScenarioConfig config = OrchestratorTest::evalConfig(seed);
        config.spawnMinSec = 3;
        config.spawnMaxSec = 12;
        return config;
    }
};

/** Quiet warm telemetry: 150 noise-free idle ticks. */
void
warmUp(telemetry::Watcher &watcher)
{
    testbed::Testbed bed;
    bed.setNoise(0.0);
    for (int i = 0; i < 150; ++i)
        watcher.record(bed.tick({}).counters);
}

/**
 * Local-only policy keeping every warm decision-time Watcher window
 * of a BE or LC arrival, with the arriving app's name and class.
 */
class WindowRecorder : public scenario::ClusterPolicy
{
  public:
    struct Window
    {
        std::string name;
        WorkloadClass cls;
        std::vector<ml::Matrix> history;
    };

    std::string name() const override { return "window-recorder"; }

    scenario::ClusterPlacement
    place(const workloads::WorkloadSpec &spec,
          const std::vector<NodeView> &nodes, SimTime) override
    {
        if (nodes[0].watcher->sampleCount() > 0)
            windows.push_back(
                {spec.name, spec.cls, decisionWindow(*nodes[0].watcher)});
        return {0, MemoryMode::Local};
    }

    std::vector<Window> windows;
};

TEST(Schedulers, RoundRobinAlternates)
{
    RoundRobinScheduler rr;
    telemetry::Watcher w0(4), w1(4);
    const std::vector<NodeView> nodes{{&w0, 3}, {&w1, 1}};
    const auto &spec = workloads::sparkBenchmark("sort");
    const auto first = rr.place(spec, nodes, 0);
    const auto second = rr.place(spec, nodes, 1);
    const auto third = rr.place(spec, nodes, 2);
    EXPECT_NE(first.mode, second.mode);
    EXPECT_EQ(first.mode, third.mode);
    for (const auto &placement : {first, second, third})
        EXPECT_EQ(placement.node, 1u); // least loaded
    EXPECT_EQ(rr.name(), "round-robin");
}

TEST(Schedulers, AllLocalAndAllRemoteAreConstant)
{
    AllLocalScheduler all_local;
    LeastLoadedRemotePolicy all_remote;
    telemetry::Watcher w0(4), w1(4), w2(4);
    std::vector<NodeView> nodes{{&w0, 2}, {&w1, 4}, {&w2, 2}};
    const auto &spec = workloads::redisSpec();
    for (int i = 0; i < 5; ++i) {
        nodes[1].running = static_cast<std::size_t>(i);
        const std::size_t least = i < 2 ? 1u : 0u; // ties: lowest id
        const auto local = all_local.place(spec, nodes, i);
        const auto remote = all_remote.place(spec, nodes, i);
        EXPECT_EQ(local.mode, MemoryMode::Local);
        EXPECT_EQ(remote.mode, MemoryMode::Remote);
        EXPECT_EQ(local.node, least);
        EXPECT_EQ(remote.node, least);
    }
}

TEST(OrchestratorCallShape, BestEffortDecisionIsOneFusedPairQuery)
{
    // The BE rule compares two hypotheticals sharing S, Ŝ and k, so a
    // decision asks ONE batched question whose two rows point at the
    // same history and the same stored signature.
    CountingPredictor predictor;
    telemetry::Watcher watcher(200);
    warmUp(watcher);
    const auto &spec = workloads::sparkBenchmark("sort");
    scenario::SignatureStore store;
    store.put(spec.name, decisionWindow(watcher));
    AdriasOrchestrator orchestrator(predictor, store, {});

    // β = 0.8: local iff 100 < 0.8 · 90, so the stub's rows say Remote.
    EXPECT_EQ(orchestrator.place(spec, watcher, 150), MemoryMode::Remote);
    EXPECT_EQ(predictor.singleCalls, 0u);
    ASSERT_EQ(predictor.batches.size(), 1u);
    const CountingPredictor::BatchCall &call = predictor.batches[0];
    EXPECT_EQ(call.cls, WorkloadClass::BestEffort);
    EXPECT_EQ(call.modes, (std::vector<MemoryMode>{MemoryMode::Local,
                                                   MemoryMode::Remote}));
    EXPECT_EQ(call.historySlot, (std::vector<std::size_t>{0, 0}));
    ASSERT_EQ(call.histories.size(), 1u);
    EXPECT_TRUE(sameWindow(call.histories[0], decisionWindow(watcher)));
    ASSERT_EQ(call.signatures.size(), 1u);
    EXPECT_EQ(call.signatures[0], &store.get(spec.name));
}

TEST(OrchestratorCallShape,
     LatencyCriticalDecisionOnOneWarmNodeIsOneRemoteRow)
{
    // The LC rule reads the remote row; a local row would only be
    // compared against another warm node's.  One warm node: one batch
    // of one Remote row, with its history and the signature.
    CountingPredictor predictor;
    telemetry::Watcher watcher(200);
    warmUp(watcher);
    const auto &spec = workloads::redisSpec();
    scenario::SignatureStore store;
    store.put(spec.name, decisionWindow(watcher));
    AdriasConfig config;
    config.defaultQosP99Ms = 1e9;
    AdriasOrchestrator orchestrator(predictor, store, config);

    EXPECT_EQ(orchestrator.place(spec, watcher, 150), MemoryMode::Remote);
    EXPECT_EQ(predictor.singleCalls, 0u);
    ASSERT_EQ(predictor.batches.size(), 1u);
    const CountingPredictor::BatchCall &call = predictor.batches[0];
    EXPECT_EQ(call.cls, WorkloadClass::LatencyCritical);
    EXPECT_EQ(call.modes, (std::vector<MemoryMode>{MemoryMode::Remote}));
    EXPECT_EQ(call.historySlot, (std::vector<std::size_t>{0}));
    ASSERT_EQ(call.histories.size(), 1u);
    EXPECT_TRUE(sameWindow(call.histories[0], decisionWindow(watcher)));
    ASSERT_EQ(call.signatures.size(), 1u);
    EXPECT_EQ(call.signatures[0], &store.get(spec.name));
}

TEST_F(OrchestratorTest, FusedPairMatchesSingleRowCallsBitwise)
{
    // Every forward op is row-independent (DESIGN.md §9), so the fused
    // {Local, Remote} query a decision issues must equal two
    // single-row calls exactly — the BE rows and the LC remote row the
    // QoS rule reads — on real decision-time windows.
    WindowRecorder recorder;
    ScenarioRunner runner(evalConfig(904));
    runner.run(recorder);
    ASSERT_GE(recorder.windows.size(), 20u);

    const models::Predictor &predictor = stack->predictor();
    std::size_t compared_be = 0;
    std::size_t compared_lc = 0;
    for (const auto &[name, cls, window] : recorder.windows) {
        if (!stack->signatures().has(name))
            continue;
        const auto &signature = stack->signatures().get(name);
        const std::vector<double> fused = predictor.predictPerformanceBatch(
            cls, {{&window, &signature, MemoryMode::Local},
                  {&window, &signature, MemoryMode::Remote}});
        ASSERT_EQ(fused.size(), 2u);
        EXPECT_EQ(fused[1],
                  predictor.predictPerformance(cls, window, signature,
                                               MemoryMode::Remote));
        if (cls == WorkloadClass::LatencyCritical) {
            ++compared_lc;
            continue;
        }
        EXPECT_EQ(fused[0],
                  predictor.predictPerformance(cls, window, signature,
                                               MemoryMode::Local));
        ++compared_be;
    }
    EXPECT_GE(compared_be, 20u);
    EXPECT_GE(compared_lc, 3u);
}

TEST_F(OrchestratorTest, RequiresTrainedPredictor)
{
    models::Predictor untrained;
    scenario::SignatureStore store;
    EXPECT_THROW(AdriasOrchestrator(untrained, store, {}),
                 std::runtime_error);
}

TEST_F(OrchestratorTest, RejectsSillyBeta)
{
    AdriasConfig config;
    config.beta = 0.0;
    EXPECT_THROW(stack->makeOrchestrator(config), std::runtime_error);
    config.beta = 2.0;
    EXPECT_THROW(stack->makeOrchestrator(config), std::runtime_error);
}

TEST_F(OrchestratorTest, NameEncodesBeta)
{
    AdriasConfig config;
    config.beta = 0.7;
    auto orchestrator = stack->makeOrchestrator(config);
    EXPECT_EQ(orchestrator.name(), "adrias-b0.7");
}

TEST_F(OrchestratorTest, UnknownAppBootstrapsOnRemote)
{
    auto orchestrator = stack->makeOrchestrator();
    telemetry::Watcher watcher(16);

    workloads::WorkloadSpec novel = workloads::sparkBenchmark("sort");
    novel.name = "brand-new-app";
    EXPECT_EQ(orchestrator.place(novel, watcher, 0), MemoryMode::Remote);
    EXPECT_EQ(orchestrator.stats().bootstrapPlacements, 1u);

    // Completion with an execution window registers the signature.
    scenario::DeploymentRecord record;
    record.name = "brand-new-app";
    record.cls = WorkloadClass::BestEffort;
    record.mode = MemoryMode::Remote;
    record.executionWindow.assign(
        ScenarioRunner::kWindowBins,
        ml::Matrix(1, testbed::kNumPerfEvents));
    orchestrator.onCompletion(record);
    EXPECT_TRUE(stack->signatures().has("brand-new-app"));
    stack->signatures().erase("brand-new-app");
}

TEST_F(OrchestratorTest, ColdTelemetryFallsBackToLocal)
{
    auto orchestrator = stack->makeOrchestrator();
    telemetry::Watcher cold(16);
    EXPECT_EQ(orchestrator.place(workloads::sparkBenchmark("sort"), cold,
                                 0),
              MemoryMode::Local);
}

TEST_F(OrchestratorTest, BetaOneBehavesLikeAllLocal)
{
    // Paper: for beta=1 Adrias is equivalent to All-Local.  With our
    // model-error levels some remote-tolerant apps (gmm, pca) may still
    // be offloaded on prediction noise, so equivalence is asserted on
    // the median BE performance, plus a cap on offloads of the
    // remote-averse apps.
    AdriasConfig config;
    config.beta = 1.0;
    auto orchestrator = stack->makeOrchestrator(config);
    ScenarioRunner adrias_runner(evalConfig(901));
    const auto adrias_result = adrias_runner.run(orchestrator);

    AllLocalScheduler all_local;
    ScenarioRunner local_runner(evalConfig(901));
    const auto local_result = local_runner.run(all_local);

    auto be_median = [](const scenario::ScenarioResult &result) {
        std::vector<double> times;
        for (const auto &record : result.records)
            if (record.cls == WorkloadClass::BestEffort)
                times.push_back(record.execTimeSec);
        return stats::quantile(times, 0.5);
    };
    EXPECT_LT(be_median(adrias_result),
              be_median(local_result) * 1.15);

    std::size_t averse_remote = 0, averse_total = 0;
    for (const auto &record : adrias_result.records) {
        if (record.name != "nweight" && record.name != "lr")
            continue;
        ++averse_total;
        averse_remote += record.mode == MemoryMode::Remote;
    }
    if (averse_total > 0) {
        EXPECT_LT(static_cast<double>(averse_remote) /
                      static_cast<double>(averse_total),
                  0.35);
    }
}

TEST_F(OrchestratorTest, LowerBetaOffloadsMore)
{
    auto offload_fraction = [&](double beta) {
        AdriasConfig config;
        config.beta = beta;
        auto orchestrator = stack->makeOrchestrator(config);
        ScenarioRunner runner(evalConfig(902));
        const auto result = runner.run(orchestrator);
        std::size_t total = 0, remote = 0;
        for (const auto &record : result.records) {
            if (record.cls != WorkloadClass::BestEffort)
                continue;
            ++total;
            remote += record.mode == MemoryMode::Remote;
        }
        return total == 0 ? 0.0
                          : static_cast<double>(remote) /
                                static_cast<double>(total);
    };
    const double strict = offload_fraction(0.9);
    const double loose = offload_fraction(0.6);
    EXPECT_GE(loose, strict);
    EXPECT_GT(loose, 0.2); // beta=0.6 offloads aggressively (paper)
}

TEST_F(OrchestratorTest, QosThresholdControlsLcPlacement)
{
    // Absurdly loose QoS -> remote; absurdly strict -> local.
    telemetry::Watcher watcher(200);
    // Warm telemetry with a quiet system.
    testbed::Testbed bed;
    bed.setNoise(0.0);
    for (int i = 0; i < 150; ++i)
        watcher.record(bed.tick({}).counters);

    AdriasConfig loose;
    loose.beta = 0.8;
    loose.defaultQosP99Ms = 1e9;
    auto relaxed = stack->makeOrchestrator(loose);
    EXPECT_EQ(relaxed.place(workloads::redisSpec(), watcher, 0),
              MemoryMode::Remote);

    AdriasConfig strict;
    strict.beta = 0.8;
    strict.defaultQosP99Ms = 1e-9;
    auto tight = stack->makeOrchestrator(strict);
    EXPECT_EQ(tight.place(workloads::redisSpec(), watcher, 0),
              MemoryMode::Local);
}

TEST_F(OrchestratorTest, QosPerAppOverridesDefault)
{
    AdriasConfig config;
    config.defaultQosP99Ms = 1.0;
    config.qosP99Ms["redis"] = 2.5;
    auto orchestrator = stack->makeOrchestrator(config);
    EXPECT_DOUBLE_EQ(orchestrator.qosFor("redis"), 2.5);
    EXPECT_DOUBLE_EQ(orchestrator.qosFor("memcached"), 1.0);
}

TEST_F(OrchestratorTest, EndToEndBeatsNaiveSchedulersOnMedian)
{
    // The headline claim (Fig. 16): Adrias' BE execution-time
    // distribution dominates Random/Round-Robin.
    auto median_be = [&](scenario::ClusterPolicy &policy,
                         std::uint64_t seed) {
        ScenarioRunner runner(evalConfig(seed));
        const auto result = runner.run(policy);
        std::vector<double> times;
        for (const auto &record : result.records)
            if (record.cls == WorkloadClass::BestEffort)
                times.push_back(record.execTimeSec);
        return stats::quantile(times, 0.5);
    };

    AdriasConfig config;
    config.beta = 0.8;
    auto adrias = stack->makeOrchestrator(config);
    scenario::RandomPlacement random(3);
    RoundRobinScheduler rr;

    const double adrias_median = median_be(adrias, 903);
    const double random_median = median_be(random, 903);
    const double rr_median = median_be(rr, 903);
    EXPECT_LT(adrias_median, random_median * 1.05);
    EXPECT_LT(adrias_median, rr_median * 1.05);
}

// ---------------------------------------------------------------------
// The same orchestrator on wider racks (§VII): one batched query over
// every warm node, (node, mode) choice with iso-QoS load tie-breaks,
// and rack-aware routing with retries.
// ---------------------------------------------------------------------

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
    std::vector<NodeView> nodes{{&w0, 3}, {&w1, 0}, {&w2, 1}};

    CountingPredictor predictor;
    scenario::SignatureStore store;
    const auto &be = workloads::sparkBenchmark("sort");
    const auto &lc = workloads::redisSpec();
    store.put(be.name, decisionWindow(w0));
    store.put(lc.name, decisionWindow(w2));
    AdriasOrchestrator orchestrator(predictor, store, {});

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
    std::vector<NodeView> cold{{&c0, 2}, {&c1, 1}};
    EXPECT_EQ(orchestrator.place(be, cold, 0).mode, MemoryMode::Local);
    EXPECT_EQ(predictor.batches.size(), decisions);
}

TEST_F(ClusterOrchestratorTest, UnknownAppBootstrapsOnLeastLoaded)
{
    AdriasOrchestrator orchestrator(stack->predictor(),
                                    stack->signatures(), {});
    telemetry::Watcher w0(16), w1(16);
    std::vector<NodeView> nodes{{&w0, 5}, {&w1, 2}};
    workloads::WorkloadSpec novel = workloads::sparkBenchmark("sort");
    novel.name = "never-seen";
    const auto placement =
        orchestrator.place(novel, nodes, 0);
    EXPECT_EQ(placement.node, 1u);
    EXPECT_EQ(placement.mode, MemoryMode::Remote);
}

TEST_F(ClusterOrchestratorTest, ColdClusterFallsBackToLeastLoadedLocal)
{
    AdriasOrchestrator orchestrator(stack->predictor(),
                                    stack->signatures(), {});
    telemetry::Watcher w0(16), w1(16);
    std::vector<NodeView> nodes{{&w0, 4}, {&w1, 1}};
    const auto placement = orchestrator.place(
        workloads::sparkBenchmark("sort"), nodes, 0);
    EXPECT_EQ(placement.node, 1u);
    EXPECT_EQ(placement.mode, MemoryMode::Local);
}

TEST_F(ClusterOrchestratorTest, PrefersQuietNodeForBestEffort)
{
    AdriasOrchestrator orchestrator(stack->predictor(),
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

    std::vector<NodeView> nodes{{&busy, 12}, {&idle, 12}};
    const auto placement = orchestrator.place(
        workloads::sparkBenchmark("lr"), nodes, 200);
    EXPECT_EQ(placement.node, 1u);
}

TEST_F(ClusterOrchestratorTest, EndToEndComparableToLeastLoaded)
{
    // On a rack the orchestrator must not lose to the load-balancing
    // baseline on median BE performance while actually using remote
    // memory.
    AdriasConfig config;
    config.beta = 0.8;
    config.defaultQosP99Ms = 5.0;
    AdriasOrchestrator adrias(stack->predictor(), stack->signatures(),
                              config);
    AllLocalScheduler baseline;

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
    AdriasOrchestrator orchestrator(stack->predictor(),
                                    stack->signatures(), {});
    const testbed::Topology topo = testbed::Topology::paperPair();
    telemetry::Watcher w0(16);
    std::vector<NodeView> nodes{{&w0, 0}};
    const auto placement = orchestrator.placeRack(
        novelSpec(), nodes, fullView(topo), 0);
    EXPECT_EQ(placement.node, 0u);
    EXPECT_EQ(placement.mode, MemoryMode::Remote);
    EXPECT_EQ(placement.server, 0u);
    EXPECT_EQ(placement.link, 0u);
}

TEST_F(ClusterOrchestratorTest, PlaceRackPrefersRoomiestServer)
{
    AdriasOrchestrator orchestrator(stack->predictor(),
                                    stack->signatures(), {});
    const testbed::Topology topo = testbed::Topology::symmetric(
        2, 2, testbed::kCxlProfile, 128.0);
    telemetry::Watcher w0(16), w1(16);
    std::vector<NodeView> nodes{{&w0, 1}, {&w1, 5}};

    scenario::RackView view = fullView(topo);
    view.servers[0].availableGb = 10.0;
    view.servers[1].availableGb = 90.0;
    const auto placement =
        orchestrator.placeRack(novelSpec(), nodes, view, 0);
    EXPECT_EQ(placement.node, 0u); // least loaded
    EXPECT_EQ(placement.mode, MemoryMode::Remote);
    EXPECT_EQ(placement.server, 1u);
    EXPECT_EQ(placement.link, testbed::testutil::linkBetween(topo, 0, 1));
}

TEST_F(ClusterOrchestratorTest, PlaceRackRetriesSurvivingNodesInLoadOrder)
{
    AdriasOrchestrator orchestrator(stack->predictor(),
                                    stack->signatures(), {});
    const testbed::Topology topo = testbed::Topology::symmetric(
        3, 2, testbed::kCxlProfile, 128.0);
    telemetry::Watcher w0(16), w1(16), w2(16);
    // Node 0 is predicted-best (least loaded) but loses both links;
    // node 2 is the least-loaded survivor and must win over node 1.
    std::vector<NodeView> nodes{{&w0, 0}, {&w1, 6}, {&w2, 2}};

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
    AdriasOrchestrator orchestrator(stack->predictor(),
                                    stack->signatures(), {});
    const testbed::Topology topo = testbed::Topology::symmetric(
        2, 2, testbed::kCxlProfile, 128.0);
    telemetry::Watcher w0(16), w1(16);
    std::vector<NodeView> nodes{{&w0, 1}, {&w1, 3}};

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
    AdriasOrchestrator orchestrator(stack->predictor(),
                                    stack->signatures(), {});
    const testbed::Topology topo = testbed::Topology::asymmetric4x4();
    telemetry::Watcher w0(16), w1(16), w2(16), w3(16);
    // Node 0 reaches all four servers, including the drained s3.
    std::vector<NodeView> nodes{
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
    AdriasOrchestrator orchestrator(stack->predictor(),
                                    stack->signatures(), {});
    const testbed::Topology topo = testbed::Topology::symmetric(
        2, 2, testbed::kCxlProfile, 128.0);
    telemetry::Watcher w0(16), w1(16);
    std::vector<NodeView> nodes{{&w0, 4}, {&w1, 1}};
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
    std::vector<NodeView> nodes{{&w0, 0}, {&w1, 5}};

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
