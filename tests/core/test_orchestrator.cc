/** @file Tests for the Adrias orchestrator and baseline schedulers. */

#include <gtest/gtest.h>

#include "core/adrias.hh"
#include "counting_predictor.hh"
#include "ml/simd.hh"

namespace adrias::core
{
namespace
{

using scenario::ScenarioConfig;
using scenario::ScenarioRunner;

/** One trained stack shared across the suite (training is the cost). */
class OrchestratorTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        AdriasStack::BuildOptions options;
        options.scenarios = 3;
        options.scenarioDurationSec = 1500;
        options.seed = 700;
        options.model.epochs = 18;
        options.model.hidden = 16;
        options.model.headWidth = 24;
        stack = new AdriasStack(options);
    }

    static void
    TearDownTestSuite()
    {
        delete stack;
        stack = nullptr;
    }

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
 * of a best-effort arrival, with the arriving app's name.
 */
class WindowRecorder : public scenario::PlacementPolicy
{
  public:
    std::string name() const override { return "window-recorder"; }

    MemoryMode
    place(const workloads::WorkloadSpec &spec,
          const telemetry::Watcher &watcher, SimTime) override
    {
        if (spec.cls == WorkloadClass::BestEffort &&
            watcher.sampleCount() > 0)
            windows.push_back({spec.name, decisionWindow(watcher)});
        return MemoryMode::Local;
    }

    std::vector<std::pair<std::string, std::vector<ml::Matrix>>> windows;
};

TEST(Schedulers, RoundRobinAlternates)
{
    RoundRobinScheduler rr;
    telemetry::Watcher watcher(4);
    const auto &spec = workloads::sparkBenchmark("sort");
    const MemoryMode first = rr.place(spec, watcher, 0);
    const MemoryMode second = rr.place(spec, watcher, 1);
    const MemoryMode third = rr.place(spec, watcher, 2);
    EXPECT_NE(first, second);
    EXPECT_EQ(first, third);
    EXPECT_EQ(rr.name(), "round-robin");
}

TEST(Schedulers, AllLocalAndAllRemoteAreConstant)
{
    AllLocalScheduler all_local;
    AllRemoteScheduler all_remote;
    telemetry::Watcher watcher(4);
    const auto &spec = workloads::redisSpec();
    for (int i = 0; i < 5; ++i) {
        EXPECT_EQ(all_local.place(spec, watcher, i), MemoryMode::Local);
        EXPECT_EQ(all_remote.place(spec, watcher, i),
                  MemoryMode::Remote);
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

TEST(OrchestratorCallShape, LatencyCriticalDecisionIsOneSingleRowQuery)
{
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
    EXPECT_EQ(predictor.singleCalls, 1u);
    EXPECT_TRUE(predictor.batches.empty());
}

TEST_F(OrchestratorTest, FusedPairMatchesSingleRowCallsBitwise)
{
    // Every forward op is row-independent (DESIGN.md §9), so the fused
    // {Local, Remote} query a BE decision issues must equal two
    // single-row calls exactly, on real decision-time windows and on
    // both kernel tiers.
    WindowRecorder recorder;
    ScenarioRunner runner(evalConfig(904));
    runner.run(recorder);
    ASSERT_GE(recorder.windows.size(), 20u);

    const models::Predictor &predictor = stack->predictor();
    for (ml::KernelTier tier : {ml::KernelTier::Scalar,
                                ml::KernelTier::Vector}) {
        SCOPED_TRACE(ml::kernelTierName(tier));
        const ml::ScopedKernelTier pin(tier);
        std::size_t compared = 0;
        for (const auto &[name, window] : recorder.windows) {
            if (!stack->signatures().has(name))
                continue;
            const auto &signature = stack->signatures().get(name);
            const std::vector<double> fused =
                predictor.predictPerformanceBatch(
                    WorkloadClass::BestEffort,
                    {{&window, &signature, MemoryMode::Local},
                     {&window, &signature, MemoryMode::Remote}});
            ASSERT_EQ(fused.size(), 2u);
            EXPECT_EQ(fused[0], predictor.predictPerformance(
                                    WorkloadClass::BestEffort, window,
                                    signature, MemoryMode::Local));
            EXPECT_EQ(fused[1], predictor.predictPerformance(
                                    WorkloadClass::BestEffort, window,
                                    signature, MemoryMode::Remote));
            ++compared;
        }
        EXPECT_GE(compared, 20u);
    }
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
    auto median_be = [&](scenario::PlacementPolicy &policy,
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

} // namespace
} // namespace adrias::core
