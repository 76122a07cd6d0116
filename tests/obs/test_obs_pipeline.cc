/**
 * @file
 * End-to-end observability test: run a scenario through the full
 * Watcher → GuardedPredictor → Orchestrator pipeline with obs armed
 * and assert the trace carries events from every instrumented layer
 * (testbed, watcher, predictor, orchestrator, threadpool, scenario)
 * and that the layer counters moved; a rack cluster run must report its
 * testbed ticks and orchestrator decisions the same way.  With
 * ADRIAS_OBS=OFF the same pipeline must leave the trace and every
 * counter untouched.
 */

#include <set>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/threadpool.hh"
#include "core/orchestrator.hh"
#include "models/guard.hh"
#include "obs/obs.hh"
#include "scenario/cluster.hh"
#include "scenario/engine.hh"
#include "scenario/runner.hh"
#include "testbed/topology.hh"

namespace
{

using namespace adrias;

/** Deterministic stand-in for the trained prediction stack. */
class FakePredictor final : public models::PredictorBase
{
  public:
    ml::Matrix
    predictSystemState(const telemetry::Watcher &watcher) const override
    {
        (void)watcher;
        return ml::Matrix(1, testbed::kNumPerfEvents);
    }

    double
    predictPerformance(WorkloadClass cls,
                       const std::vector<ml::Matrix> &history,
                       const std::vector<ml::Matrix> &signature,
                       MemoryMode mode) const override
    {
        (void)cls;
        (void)history;
        (void)signature;
        // Local slightly ahead of beta-scaled remote: a mix of
        // local/remote decisions over a run.
        return mode == MemoryMode::Local ? 100.0 : 118.0;
    }

    bool trained() const override { return true; }
};

/** One short scenario through the full guarded pipeline. */
scenario::ScenarioResult
runPipeline()
{
    FakePredictor inner;
    models::GuardedPredictor guard(inner);
    scenario::SignatureStore signatures;
    core::AdriasConfig config;
    config.beta = 0.8;
    core::AdriasOrchestrator orchestrator(guard, signatures, config);

    scenario::ScenarioConfig scenario_config;
    // Long enough that first-encounter apps complete their bootstrap
    // runs and later arrivals flow through the model path.
    scenario_config.durationSec = 1500;
    scenario_config.spawnMaxSec = 25;
    scenario_config.seed = 11;
    scenario::ScenarioRunner runner(scenario_config);
    return runner.run(orchestrator);
}

#if ADRIAS_OBS_ENABLED

TEST(ObsPipeline, TraceCarriesEventsFromEveryLayer)
{
    obs::resetAll();
    obs::setEnabled(true);
    obs::Tracer::global().setEnabled(true);

    const scenario::ScenarioResult result = runPipeline();
    ASSERT_FALSE(result.records.empty());

    // Drive the thread pool directly too: on a single-core host the
    // scenario itself never enqueues.
    ThreadPool::global().parallelForEach(64, [](std::size_t) {});

    obs::Tracer::global().setEnabled(false);
    obs::setEnabled(false);

    std::set<std::string> cats;
    for (const obs::TraceEvent &event : obs::Tracer::global().snapshot())
        cats.insert(event.cat);
    EXPECT_TRUE(cats.count("testbed")) << "no testbed events";
    EXPECT_TRUE(cats.count("watcher")) << "no watcher events";
    EXPECT_TRUE(cats.count("predictor")) << "no predictor events";
    EXPECT_TRUE(cats.count("orchestrator")) << "no orchestrator events";
    EXPECT_TRUE(cats.count("threadpool")) << "no threadpool events";
    EXPECT_TRUE(cats.count("scenario")) << "no scenario events";

    obs::MetricsRegistry &reg = obs::MetricsRegistry::global();
    EXPECT_GT(reg.counter("testbed.ticks").get(), 0u);
    EXPECT_GT(reg.counter("watcher.samples_accepted").get(), 0u);
    EXPECT_GT(reg.counter("predictor.calls").get(), 0u);
    EXPECT_GT(reg.counter("orchestrator.decisions").get(), 0u);
    EXPECT_GT(reg.counter("scenario.ticks").get(), 0u);
    EXPECT_GT(reg.counter("threadpool.chunks").get(), 0u);
    EXPECT_GT(reg.histogram("predictor.latency_ms").snapshot().count, 0u);

    // Placement instants carry the full comparison operands.
    bool saw_operands = false;
    for (const obs::TraceEvent &event : obs::Tracer::global().snapshot()) {
        if (event.name != "place")
            continue;
        std::set<std::string> keys;
        for (const obs::TraceArg &a : event.args)
            keys.insert(a.key);
        EXPECT_TRUE(keys.count("t_local"));
        EXPECT_TRUE(keys.count("beta"));
        EXPECT_TRUE(keys.count("t_remote"));
        EXPECT_TRUE(keys.count("p99_remote"));
        EXPECT_TRUE(keys.count("qos"));
        saw_operands = true;
        break;
    }
    EXPECT_TRUE(saw_operands) << "no placement instant recorded";

    obs::resetAll();
}

TEST(ObsPipeline, SubMillisecondChunksShowNonZeroP50)
{
    obs::resetAll();
    obs::setEnabled(true);

    // Single-item calls run as one inline chunk; each spins ~20 µs on
    // the tracer's clock, far below a millisecond.
    constexpr double kSpinSeconds = 20e-6;
    for (int call = 0; call < 16; ++call)
        ThreadPool::global().parallelFor(1, [&](std::size_t, std::size_t) {
            const double start = obs::Tracer::global().wallNow();
            while (obs::Tracer::global().wallNow() - start < kSpinSeconds) {
            }
        });
    obs::setEnabled(false);

    obs::MetricsRegistry &reg = obs::MetricsRegistry::global();
    const obs::HistogramSnapshot snap =
        reg.histogram("threadpool.chunk_us").snapshot();
    EXPECT_EQ(snap.count, 16u);
    EXPECT_GE(snap.p50, 20.0) << "chunk durations must be microseconds";

    // The metrics table prints four decimals: in seconds this chunk
    // would read 0.0000.  Columns: metric kind count value p50 ...
    std::istringstream table(reg.summaryTable());
    std::string line;
    std::string p50_cell;
    while (std::getline(table, line)) {
        std::istringstream cells(line);
        std::string name, kind, count, mean;
        cells >> name >> kind >> count >> mean >> p50_cell;
        if (name == "threadpool.chunk_us")
            break;
        p50_cell.clear();
    }
    ASSERT_FALSE(p50_cell.empty()) << "no threadpool.chunk_us row";
    EXPECT_GT(std::stod(p50_cell), 0.0) << "p50 cell: " << p50_cell;

    obs::resetAll();
}

TEST(ObsPipeline, DisarmedRunRecordsNothing)
{
    obs::resetAll();
    obs::setEnabled(false);
    obs::Tracer::global().setEnabled(false);

    const scenario::ScenarioResult result = runPipeline();
    ASSERT_FALSE(result.records.empty());

    EXPECT_EQ(obs::Tracer::global().eventCount(), 0u);
    EXPECT_EQ(obs::MetricsRegistry::global()
                  .counter("orchestrator.decisions")
                  .get(),
              0u);
}

TEST(ObsPipeline, RackClusterRunReportsTestbedTicks)
{
    // A cluster run resolves through the same instrumented resolver as
    // the paper pair: one testbed tick per simulated second, and every
    // link's latency lands in the channel histogram.
    obs::resetAll();
    obs::setEnabled(true);

    scenario::ScenarioConfig config;
    config.durationSec = 90;
    config.spawnMaxSec = 15;
    config.seed = 5;
    config.topology = "rack-2x2-cxl";
    const testbed::Topology topo = testbed::topologyByName(config.topology);
    scenario::ClusterScenarioRunner runner(topo, config);
    scenario::RandomPlacement policy(3);
    const scenario::ClusterResult result = runner.run(policy);
    obs::setEnabled(false);
    ASSERT_EQ(result.nodes.size(), 2u);

    obs::MetricsRegistry &reg = obs::MetricsRegistry::global();
    EXPECT_EQ(reg.counter("testbed.ticks").get(),
              static_cast<std::uint64_t>(config.durationSec));
    EXPECT_EQ(reg.histogram("testbed.channel_latency_cycles")
                  .snapshot()
                  .count,
              static_cast<std::size_t>(config.durationSec) *
                  topo.linkCount());
    obs::resetAll();
}

/** Counts the policy decisions the engine applied. */
class DecisionCounter : public scenario::DecisionSink
{
  public:
    void onDecision(const scenario::PlacementDecision &) override
    {
        ++count;
    }

    std::uint64_t count = 0;
};

TEST(ObsPipeline, RackRunCountsEveryOrchestratorDecision)
{
    // Rack decisions count under the same orchestrator metrics as the
    // paper pair's, and each place instant names the chosen node.
    obs::resetAll();
    obs::setEnabled(true);
    obs::Tracer::global().setEnabled(true);

    FakePredictor inner;
    models::GuardedPredictor guard(inner);
    scenario::SignatureStore signatures;
    core::AdriasOrchestrator orchestrator(guard, signatures, {});
    scenario::ScenarioConfig config;
    config.durationSec = 600;
    config.spawnMaxSec = 15;
    config.seed = 5;
    config.topology = "rack-2x2-cxl";
    scenario::ScenarioEngine engine(config);
    DecisionCounter placed;
    engine.setDecisionSink(&placed);
    while (!engine.finished())
        engine.stepTick(orchestrator);
    const scenario::ClusterResult result = engine.finishCluster();
    obs::Tracer::global().setEnabled(false);
    obs::setEnabled(false);

    // Nothing dropped, so every decision was applied: one per
    // non-trasher arrival.
    ASSERT_EQ(result.droppedArrivals, 0u);
    ASSERT_GT(placed.count, 0u);
    obs::MetricsRegistry &reg = obs::MetricsRegistry::global();
    EXPECT_EQ(reg.counter("orchestrator.decisions").get(), placed.count);
    EXPECT_EQ(reg.counter("orchestrator.local_placements").get() +
                  reg.counter("orchestrator.remote_placements").get(),
              placed.count);
    EXPECT_EQ(reg.counter("orchestrator.path.bootstrap").get() +
                  reg.counter("orchestrator.path.cold").get() +
                  reg.counter("orchestrator.path.model").get() +
                  reg.counter("orchestrator.path.fallback").get(),
              placed.count);
    EXPECT_GT(reg.counter("orchestrator.path.model").get(), 0u);

    std::set<std::string> nodes_named;
    std::uint64_t instants = 0;
    for (const obs::TraceEvent &event : obs::Tracer::global().snapshot()) {
        if (event.name != "place" || event.phase != 'i')
            continue;
        ++instants;
        for (const obs::TraceArg &a : event.args)
            if (a.key == "node")
                nodes_named.insert(a.json);
    }
    EXPECT_EQ(instants, placed.count);
    EXPECT_EQ(nodes_named, (std::set<std::string>{"0", "1"}));
    obs::resetAll();
}

#else // !ADRIAS_OBS_ENABLED

TEST(ObsPipeline, CompiledOutPipelineLeavesNoTrace)
{
    obs::setEnabled(true); // must be inert
    obs::Tracer::global().setEnabled(true);

    const scenario::ScenarioResult result = runPipeline();
    ASSERT_FALSE(result.records.empty());

    EXPECT_EQ(obs::Tracer::global().eventCount(), 0u);
    EXPECT_EQ(obs::MetricsRegistry::global()
                  .counter("orchestrator.decisions")
                  .get(),
              0u);
}

#endif // ADRIAS_OBS_ENABLED

} // namespace
