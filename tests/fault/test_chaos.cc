/**
 * @file
 * Chaos suite: full scenarios under fault schedules, exercising every
 * graceful-degradation path of the Watcher → Predictor → Orchestrator
 * pipeline end to end.
 *
 * Uses a deterministic stub prediction stack (the decision rules and
 * the degradation machinery are under test, not model accuracy), so
 * full 3600 s scenarios run in milliseconds.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/orchestrator.hh"
#include "core/schedulers.hh"
#include "fault/fault.hh"
#include "models/guard.hh"
#include "scenario/cluster.hh"
#include "scenario/runner.hh"
#include "scenario/signature.hh"
#include "stats/percentile.hh"
#include "testbed/topology.hh"
#include "../testbed/topology/link_between.hh"

namespace adrias::core
{
namespace
{

using fault::FaultKind;
using fault::FaultSchedule;
using scenario::ScenarioConfig;
using scenario::ScenarioResult;
using scenario::ScenarioRunner;
using testbed::kNumPerfEvents;

/**
 * Deterministic interference-aware stand-in for the trained stack:
 * predictions derive from the channel-latency event of the history
 * window, so placements react to congestion without any training.
 */
class StubPredictor : public models::PredictorBase
{
  public:
    ml::Matrix
    predictSystemState(const telemetry::Watcher &watcher) const override
    {
        // One bin over at most the retained samples: their plain mean,
        // without cold-start padding.
        const std::size_t window = std::min<std::size_t>(
            watcher.sampleCount(), ScenarioRunner::kWindowSec);
        return watcher.binnedWindow(window, 1).front();
    }

    double
    predictPerformance(WorkloadClass cls,
                       const std::vector<ml::Matrix> &history,
                       const std::vector<ml::Matrix> &,
                       MemoryMode mode) const override
    {
        const double chan_lat = history.back().at(
            0, static_cast<std::size_t>(testbed::PerfEvent::ChannelLat));
        const double congestion = chan_lat / 350.0;
        if (cls == WorkloadClass::BestEffort)
            return mode == MemoryMode::Remote ? 120.0 * congestion
                                              : 95.0;
        return mode == MemoryMode::Remote ? 0.8 * congestion : 0.5;
    }

    bool trained() const override { return true; }
};

/** A stack that always throws, to drive the breaker directly. */
class CrashingPredictor : public StubPredictor
{
  public:
    double
    predictPerformance(WorkloadClass, const std::vector<ml::Matrix> &,
                       const std::vector<ml::Matrix> &,
                       MemoryMode) const override
    {
        throw std::runtime_error("inference backend down");
    }
};

/** Signatures are expensive to profile; share one registry. */
class ChaosTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        signatures = new scenario::SignatureStore;
        scenario::collectAllSignatures(*signatures);
    }

    static void
    TearDownTestSuite()
    {
        delete signatures;
        signatures = nullptr;
    }

    /** The ISSUE's acceptance scenario: link flap + counter dropout +
     *  predictor crash windows inside one 3600 s run. */
    static FaultSchedule
    chaosSchedule(std::uint64_t seed)
    {
        FaultSchedule schedule;
        schedule.seed = seed;
        schedule.add({FaultKind::CounterStale, 400, 500, 1.0, 0.5, ""});
        schedule.add({FaultKind::LinkFlap, 600, 900, 1.0, 0.5, ""});
        schedule.add({FaultKind::CounterDrop, 1000, 1300, 1.0, 0.5, ""});
        schedule.add({FaultKind::LinkDegrade, 1200, 1800, 0.3, 1.0, ""});
        schedule.add({FaultKind::CounterCorrupt, 1500, 1800, 1.0, 0.3, ""});
        schedule.add({FaultKind::PredictorCrash, 2000, 2300, 1.0, 1.0, ""});
        schedule.add(
            {FaultKind::PredictorLatency, 2400, 2500, 500.0, 1.0, ""});
        return schedule;
    }

    static ScenarioConfig
    chaosConfig(bool with_faults)
    {
        ScenarioConfig config;
        config.durationSec = 3600;
        config.spawnMinSec = 5;
        config.spawnMaxSec = 25;
        config.seed = 4242;
        if (with_faults)
            config.faults = chaosSchedule(1717);
        return config;
    }

    struct ChaosRun
    {
        ScenarioResult result;
        OrchestratorStats stats;
        fault::BreakerStats breaker;
        fault::BreakerState finalState;
    };

    static ChaosRun
    runChaos(const StubPredictor &stub, bool with_faults)
    {
        const ScenarioConfig config = chaosConfig(with_faults);
        fault::FaultInjector predictor_faults(config.faults);
        models::GuardedPredictor guard(stub, {}, &predictor_faults);
        AdriasOrchestrator orchestrator(guard, *signatures, {});
        ScenarioRunner runner(config);
        ChaosRun run{runner.run(orchestrator), orchestrator.stats(),
                     guard.breaker().stats(), guard.breaker().state()};
        return run;
    }

    static double
    medianBeTime(const ScenarioResult &result)
    {
        std::vector<double> times;
        for (const auto &record : result.records)
            if (record.cls == WorkloadClass::BestEffort)
                times.push_back(record.execTimeSec);
        return stats::quantile(times, 0.5);
    }

    static scenario::SignatureStore *signatures;
};

scenario::SignatureStore *ChaosTest::signatures = nullptr;

TEST_F(ChaosTest, GuardTripsOnCrashesAndRecovers)
{
    CrashingPredictor crashing;
    models::GuardedPredictor guard(crashing, {});
    AdriasOrchestrator orchestrator(guard, *signatures, {});

    telemetry::Watcher watcher(200);
    testbed::Testbed bed;
    bed.setNoise(0.0);
    for (int i = 0; i < 150; ++i)
        watcher.record(bed.tick({}).counters);

    const auto &spec = workloads::sparkBenchmark("sort");
    ASSERT_TRUE(signatures->has(spec.name));

    // Every decision falls back; after K failures the breaker is open
    // and the stub is no longer even called.
    for (SimTime t = 0; t < 6; ++t)
        EXPECT_NO_THROW(orchestrator.place(spec, watcher, t));
    EXPECT_EQ(guard.breaker().state(), fault::BreakerState::Open);
    EXPECT_GE(orchestrator.stats().breakerTrips, 1u);
    EXPECT_EQ(orchestrator.stats().fallbackPlacements, 6u);
    EXPECT_GT(guard.stats().rejectedByBreaker, 0u);
    EXPECT_TRUE(orchestrator.degraded());
}

TEST_F(ChaosTest, GuardEnforcesDeadline)
{
    StubPredictor stub;
    FaultSchedule schedule;
    schedule.add({FaultKind::PredictorLatency, 0, 10, 500.0, 1.0, ""});
    fault::FaultInjector injector(schedule);
    models::GuardedPredictor guard(stub, {}, &injector);

    guard.beginDecision(5);
    std::vector<ml::Matrix> sequence(
        ScenarioRunner::kWindowBins, ml::Matrix(1, kNumPerfEvents));
    for (auto &step : sequence)
        for (double &v : step.raw())
            v = 1.0;
    EXPECT_THROW(guard.predictPerformance(WorkloadClass::BestEffort,
                                          sequence, sequence,
                                          MemoryMode::Local),
                 models::PredictionUnavailable);
    EXPECT_EQ(guard.stats().deadlineExceeded, 1u);

    // Outside the spike window the same call succeeds.
    guard.beginDecision(50);
    EXPECT_NO_THROW(guard.predictPerformance(WorkloadClass::BestEffort,
                                             sequence, sequence,
                                             MemoryMode::Local));
}

TEST_F(ChaosTest, ExactlyOnBudgetLatencyIsADeadlineMiss)
{
    // Regression: the check used `>`, so a modelled latency exactly
    // equal to deadlineMs slipped through although the config
    // documents a hard budget.  The boundary is exclusive: equal
    // latency misses, and tallies/fail()/breaker all see the miss.
    StubPredictor stub;
    models::PredictorGuardConfig config;
    config.baseLatencyMs = 2.0;
    config.deadlineMs = 2.0; // no headroom at all
    models::GuardedPredictor guard(stub, config);
    guard.beginDecision(0);

    std::vector<ml::Matrix> sequence(
        ScenarioRunner::kWindowBins, ml::Matrix(1, kNumPerfEvents));
    for (auto &step : sequence)
        for (double &v : step.raw())
            v = 1.0;
    EXPECT_THROW(guard.predictPerformance(WorkloadClass::BestEffort,
                                          sequence, sequence,
                                          MemoryMode::Local),
                 models::PredictionUnavailable);
    EXPECT_EQ(guard.stats().deadlineExceeded, 1u);
    EXPECT_EQ(guard.stats().failures, 1u);
    EXPECT_EQ(guard.stats().served, 0u);

    // One representable unit of headroom is enough to pass.
    models::PredictorGuardConfig headroom = config;
    headroom.deadlineMs = std::nextafter(2.0, 3.0);
    models::GuardedPredictor relaxed(stub, headroom);
    relaxed.beginDecision(0);
    EXPECT_NO_THROW(relaxed.predictPerformance(WorkloadClass::BestEffort,
                                               sequence, sequence,
                                               MemoryMode::Local));
    EXPECT_EQ(relaxed.stats().deadlineExceeded, 0u);
}

TEST_F(ChaosTest, BatchGateFailsWholeBatchOnDeadline)
{
    // The batched entry point admits ONE gate for the whole batch:
    // a deadline miss costs one gate event but fails every row, and
    // calls advance by the batch width.
    StubPredictor stub;
    models::PredictorGuardConfig config;
    config.baseLatencyMs = 2.0;
    config.deadlineMs = 2.0;
    models::GuardedPredictor guard(stub, config);
    guard.beginDecision(0);

    std::vector<ml::Matrix> sequence(
        ScenarioRunner::kWindowBins, ml::Matrix(1, kNumPerfEvents));
    for (auto &step : sequence)
        for (double &v : step.raw())
            v = 1.0;
    std::vector<models::PredictorBase::PerfQuery> queries(
        4, {&sequence, &sequence, MemoryMode::Local});
    EXPECT_THROW(guard.predictPerformanceBatch(WorkloadClass::BestEffort,
                                               queries),
                 models::PredictionUnavailable);
    EXPECT_EQ(guard.stats().deadlineExceeded, 1u);
    EXPECT_EQ(guard.stats().calls, 4u);
    EXPECT_EQ(guard.stats().served, 0u);

    // Healthy guard: the same batch is served and tallied per row.
    models::GuardedPredictor healthy(stub, {});
    healthy.beginDecision(0);
    const std::vector<double> out =
        healthy.predictPerformanceBatch(WorkloadClass::BestEffort,
                                        queries);
    ASSERT_EQ(out.size(), 4u);
    EXPECT_EQ(healthy.stats().calls, 4u);
    EXPECT_EQ(healthy.stats().served, 4u);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_DOUBLE_EQ(
            out[i], stub.predictPerformance(WorkloadClass::BestEffort,
                                            sequence, sequence,
                                            MemoryMode::Local));
}

TEST_F(ChaosTest, BestEffortDecisionIsOneGuardAdmission)
{
    // A BE decision asks ONE {Local, Remote} batch, so under the guard
    // it is one admission — the daemon's one-gate-per-batch rule:
    // calls advance by 2 (one per row), the crash-window salt by 1,
    // and a crash window costs the decision one coin flip and at most
    // one fallback.
    FaultSchedule schedule;
    schedule.seed = 99;
    schedule.add({FaultKind::PredictorCrash, 0, 1000, 1.0, 0.5, ""});

    // Crash decisions are stateless hashes of (seed, tick, salt): find
    // a tick where salt 0 survives and salt 1 crashes.  Two single-row
    // calls would crash on their second flip there.
    fault::FaultInjector probe(schedule);
    SimTime tick = -1;
    for (SimTime t = 0; t < 1000 && tick < 0; ++t)
        if (!probe.predictorCrashAt(t, 0) && probe.predictorCrashAt(t, 1))
            tick = t;
    ASSERT_GE(tick, 0);

    StubPredictor stub;
    fault::FaultInjector injector(schedule);
    models::GuardedPredictor guard(stub, {}, &injector);
    AdriasOrchestrator orchestrator(guard, *signatures, {});
    telemetry::Watcher watcher(200);
    testbed::Testbed bed;
    bed.setNoise(0.0);
    for (int i = 0; i < 150; ++i)
        watcher.record(bed.tick({}).counters);
    const auto &spec = workloads::sparkBenchmark("sort");

    // Salt 0: the whole decision is served by one admission.
    orchestrator.place(spec, watcher, tick);
    EXPECT_EQ(guard.stats().calls, 2u);
    EXPECT_EQ(guard.stats().served, 2u);
    EXPECT_EQ(guard.stats().injectedCrashes, 0u);
    EXPECT_EQ(orchestrator.stats().fallbackPlacements, 0u);

    // Salt 1: one crash, one failure, one fallback.
    orchestrator.place(spec, watcher, tick);
    EXPECT_EQ(guard.stats().calls, 4u);
    EXPECT_EQ(guard.stats().served, 2u);
    EXPECT_EQ(guard.stats().injectedCrashes, 1u);
    EXPECT_EQ(guard.stats().failures, 1u);
    EXPECT_EQ(orchestrator.stats().fallbackPlacements, 1u);
    EXPECT_EQ(orchestrator.stats().predictionFailures, 1u);
}

TEST_F(ChaosTest, GuardRejectsInvalidInputsWithoutChargingBreaker)
{
    StubPredictor stub;
    models::GuardedPredictor guard(stub, {});
    guard.beginDecision(0);

    std::vector<ml::Matrix> poisoned(
        ScenarioRunner::kWindowBins, ml::Matrix(1, kNumPerfEvents));
    poisoned[3].at(0, 2) = std::nan("");
    std::vector<ml::Matrix> clean(
        ScenarioRunner::kWindowBins, ml::Matrix(1, kNumPerfEvents));

    for (int i = 0; i < 10; ++i)
        EXPECT_THROW(guard.predictPerformance(
                         WorkloadClass::BestEffort, poisoned, clean,
                         MemoryMode::Local),
                     models::PredictionUnavailable);
    EXPECT_EQ(guard.stats().invalidInputs, 10u);
    EXPECT_EQ(guard.breaker().state(), fault::BreakerState::Closed);
}

TEST_F(ChaosTest, FullChaosScenarioSurvivesAndRecovers)
{
    StubPredictor stub;
    const ChaosRun chaos = runChaos(stub, true);

    // The scenario ran to completion and work kept finishing.
    EXPECT_EQ(chaos.result.trace.size(), 3600u);
    ASSERT_GT(chaos.result.records.size(), 50u);

    // Arrivals kept being placed straight through every fault window,
    // including the predictor-crash window [2000, 2300).
    bool placed_during_crash_window = false;
    bool placed_after_faults = false;
    for (const auto &record : chaos.result.records) {
        if (record.cls == WorkloadClass::Interference)
            continue;
        if (record.arrival >= 2000 && record.arrival < 2300)
            placed_during_crash_window = true;
        if (record.arrival >= 2500)
            placed_after_faults = true;
    }
    EXPECT_TRUE(placed_during_crash_window);
    EXPECT_TRUE(placed_after_faults);

    // Degraded-mode decisions actually happened...
    EXPECT_GT(chaos.stats.fallbackPlacements, 0u);
    EXPECT_GT(chaos.stats.predictionFailures, 0u);

    // ...the breaker tripped and then closed again once faults ended.
    EXPECT_GE(chaos.breaker.trips, 1u);
    EXPECT_GE(chaos.breaker.recoveries, 1u);
    EXPECT_EQ(chaos.finalState, fault::BreakerState::Closed);

    // The telemetry path saw and repaired real damage.
    EXPECT_GT(chaos.result.faultSummary.samplesDropped, 0u);
    EXPECT_GT(chaos.result.faultSummary.samplesCorrupted, 0u);
    EXPECT_GT(chaos.result.faultSummary.linkFaultTicks, 0u);
    EXPECT_GT(chaos.result.watcherHealth.samplesRepaired, 0u);
    EXPECT_EQ(chaos.result.watcherHealth.samplesDropped,
              chaos.result.faultSummary.samplesDropped);

    // Every sample the Watcher served downstream was finite.
    for (const auto &sample : chaos.result.trace)
        for (double v : sample)
            EXPECT_TRUE(std::isfinite(v) && v >= 0.0);
}

TEST_F(ChaosTest, DegradationIsBoundedVersusFaultFreeRun)
{
    StubPredictor stub;
    const ChaosRun clean = runChaos(stub, false);
    const ChaosRun chaos = runChaos(stub, true);

    EXPECT_EQ(clean.stats.fallbackPlacements, 0u);
    EXPECT_EQ(clean.breaker.trips, 0u);

    // Faults must hurt at most boundedly: the BE median may not
    // explode, and throughput (completions) must stay comparable.
    const double clean_median = medianBeTime(clean.result);
    const double chaos_median = medianBeTime(chaos.result);
    ASSERT_GT(clean_median, 0.0);
    EXPECT_LT(chaos_median, clean_median * 2.5);
    EXPECT_GT(static_cast<double>(chaos.result.records.size()),
              0.6 * static_cast<double>(clean.result.records.size()));
}

TEST_F(ChaosTest, SameSeedGivesIdenticalRunsAndStats)
{
    StubPredictor stub;
    const ChaosRun first = runChaos(stub, true);
    const ChaosRun second = runChaos(stub, true);

    EXPECT_EQ(first.stats.localPlacements, second.stats.localPlacements);
    EXPECT_EQ(first.stats.remotePlacements,
              second.stats.remotePlacements);
    EXPECT_EQ(first.stats.bootstrapPlacements,
              second.stats.bootstrapPlacements);
    EXPECT_EQ(first.stats.fallbackPlacements,
              second.stats.fallbackPlacements);
    EXPECT_EQ(first.stats.predictionFailures,
              second.stats.predictionFailures);
    EXPECT_EQ(first.stats.breakerTrips, second.stats.breakerTrips);
    EXPECT_EQ(first.stats.breakerRecoveries,
              second.stats.breakerRecoveries);
    EXPECT_EQ(first.stats.samplesRepaired,
              second.stats.samplesRepaired);
    EXPECT_EQ(first.stats.samplesDropped, second.stats.samplesDropped);

    EXPECT_EQ(first.result.records.size(),
              second.result.records.size());
    EXPECT_DOUBLE_EQ(first.result.totalRemoteTrafficGB,
                     second.result.totalRemoteTrafficGB);
    EXPECT_EQ(first.result.faultSummary.total(),
              second.result.faultSummary.total());
}

TEST_F(ChaosTest, DifferentFaultSeedChangesInjectionPattern)
{
    ScenarioConfig config = chaosConfig(true);
    config.faults.seed = 999;
    StubPredictor stub;
    fault::FaultInjector predictor_faults(config.faults);
    models::GuardedPredictor guard(stub, {}, &predictor_faults);
    AdriasOrchestrator orchestrator(guard, *signatures, {});
    ScenarioRunner runner(config);
    const auto reseeded = runner.run(orchestrator);

    const ChaosRun baseline = runChaos(stub, true);
    EXPECT_NE(reseeded.faultSummary.samplesDropped,
              baseline.result.faultSummary.samplesDropped);
}

// ---------------------------------------------------------------------
// Named-link chaos on rack topologies: a FaultWindow carrying a link
// name derates exactly that link of the shared rack, and placement
// degrades onto the surviving servers instead of stalling.
// ---------------------------------------------------------------------

TEST_F(ChaosTest, NamedWindowTargetsOnlyThatLink)
{
    FaultSchedule schedule;
    schedule.seed = 11;
    schedule.add({FaultKind::LinkDegrade, 0, 100, 0.3, 1.0, "n0-s0"});
    fault::FaultInjector injector(schedule);

    const fault::LinkState hit = injector.linkStateAt(50, "n0-s0");
    EXPECT_DOUBLE_EQ(hit.bwScale, 0.3);
    EXPECT_FALSE(injector.linkStateAt(50, "n0-s1").faulted());
    EXPECT_FALSE(injector.linkStateAt(200, "n0-s0").faulted());

    // The paper pair's one channel is a link like any other: a window
    // naming it derates it, a window naming another link does not.
    const std::string channel = testbed::Topology::paperPair().link(0).name;
    EXPECT_EQ(channel, "n0-s0");
    EXPECT_DOUBLE_EQ(injector.linkStateAt(50, channel).bwScale, 0.3);

    // An untargeted window keeps applying to every link.
    schedule.add({FaultKind::LinkDegrade, 0, 100, 0.5, 1.0, ""});
    fault::FaultInjector broad(schedule);
    EXPECT_DOUBLE_EQ(broad.linkStateAt(50, "n0-s1").bwScale, 0.5);
    EXPECT_DOUBLE_EQ(broad.linkStateAt(50, "n0-s0").bwScale, 0.3);
}

/** Shared rack-chaos scaffolding: a 2×2 CXL rack under a remote-
 *  preferring baseline, with an optional named-link degrade window
 *  covering the whole run. */
scenario::ClusterResult
runRackChaos(const std::string &link, double magnitude)
{
    const testbed::Topology topo = testbed::topologyByName("rack-2x2-cxl");
    ScenarioConfig config;
    config.durationSec = 900;
    config.spawnMinSec = 4;
    config.spawnMaxSec = 12;
    config.seed = 616;
    if (!link.empty())
        config.faults.add(
            {FaultKind::LinkDegrade, 0, 900, magnitude, 1.0, link});
    scenario::ClusterScenarioRunner runner(topo, config);
    LeastLoadedRemotePolicy policy;
    return runner.run(policy);
}

TEST_F(ChaosTest, DeadNamedLinkShiftsTrafficToSurvivingServer)
{
    const testbed::Topology topo = testbed::topologyByName("rack-2x2-cxl");
    const auto l00 = testbed::testutil::linkBetween(topo, 0, 0);
    const auto l01 = testbed::testutil::linkBetween(topo, 0, 1);

    const scenario::ClusterResult clean = runRackChaos("", 1.0);
    // bwScale 0.02 is below LinkView::healthy(): the link is dead for
    // routing purposes from the first tick.
    const scenario::ClusterResult dead = runRackChaos("n0-s0", 0.02);

    // The healthy run used the link; the dead run never routed onto it.
    EXPECT_GT(clean.linkTotals[l00].offeredGb, 0.0);
    EXPECT_DOUBLE_EQ(dead.linkTotals[l00].offeredGb, 0.0);

    // n0's remote demand fell back to the surviving server: its other
    // link carries strictly more than in the healthy run, and node 0
    // still completed remote deployments.
    EXPECT_GT(dead.linkTotals[l01].offeredGb,
              clean.linkTotals[l01].offeredGb);
    std::size_t remote_on_n0 = 0;
    for (const auto &record : dead.nodes[0].records)
        remote_on_n0 += record.mode == MemoryMode::Remote;
    EXPECT_GT(remote_on_n0, 0u);

    // The injector saw the link fault; the run still finished whole.
    EXPECT_GT(dead.nodes[0].faultSummary.linkFaultTicks, 0u);
    for (const auto &node : dead.nodes)
        EXPECT_EQ(node.trace.size(), 900u);
}

TEST_F(ChaosTest, DegradedNamedLinkStillRoutesButQueues)
{
    const testbed::Topology topo = testbed::topologyByName("rack-2x2-cxl");
    const auto l00 = testbed::testutil::linkBetween(topo, 0, 0);

    const scenario::ClusterResult clean = runRackChaos("", 1.0);
    // bwScale 0.1 stays above the routing health floor: the link keeps
    // carrying traffic but its 4 GB/s capacity shrinks to 0.4 GB/s.
    const scenario::ClusterResult slow = runRackChaos("n0-s0", 0.1);

    EXPECT_GT(slow.linkTotals[l00].offeredGb, 0.0);
    EXPECT_GT(slow.linkTotals[l00].queuedGb,
              clean.linkTotals[l00].queuedGb);
    EXPECT_GT(slow.linkTotals[l00].saturatedTicks,
              clean.linkTotals[l00].saturatedTicks);
}

TEST_F(ChaosTest, WindowNamingUnknownLinkIsInert)
{
    const scenario::ClusterResult clean = runRackChaos("", 1.0);
    const scenario::ClusterResult miss =
        runRackChaos("no-such-link", 0.02);

    ASSERT_EQ(miss.linkTotals.size(), clean.linkTotals.size());
    for (std::size_t l = 0; l < clean.linkTotals.size(); ++l) {
        EXPECT_EQ(miss.linkTotals[l].offeredGb,
                  clean.linkTotals[l].offeredGb);
        EXPECT_EQ(miss.linkTotals[l].deliveredGb,
                  clean.linkTotals[l].deliveredGb);
    }
    EXPECT_EQ(miss.nodes[0].faultSummary.linkFaultTicks, 0u);
}

} // namespace
} // namespace adrias::core
