#include "scenario/runner.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/threadpool.hh"
#include "obs/obs.hh"
#include "scenario/engine.hh"
#include "telemetry/watcher.hh"

namespace adrias::scenario
{

using workloads::IBenchKind;
using workloads::WorkloadInstance;
using workloads::WorkloadSpec;

std::vector<ml::Matrix>
historyWindowAt(const std::vector<testbed::CounterSample> &trace,
                SimTime arrival)
{
    if (arrival <= 0 || trace.empty())
        return {};
    const auto end = std::min<std::size_t>(
        static_cast<std::size_t>(arrival), trace.size());
    const std::size_t begin =
        end > ScenarioRunner::kWindowSec
            ? end - ScenarioRunner::kWindowSec
            : 0;
    return telemetry::binSpan(trace, begin, end,
                              ScenarioRunner::kWindowBins);
}

ArrivalDraw
drawArrival(const ScenarioConfig &config, Rng &rng)
{
    const auto &sparks = workloads::sparkBenchmarks();
    const auto &lcs = workloads::latencyCriticalBenchmarks();
    const IBenchKind ibench_kinds[] = {IBenchKind::Cpu, IBenchKind::L2,
                                       IBenchKind::L3, IBenchKind::MemBw};

    const double draw = rng.uniform();
    if (draw < config.ibenchFraction)
        return {&workloads::ibenchSpec(ibench_kinds[rng.uniformInt(0, 3)]),
                true};
    if (draw < config.ibenchFraction + config.lcFraction)
        return {&lcs[static_cast<std::size_t>(rng.uniformInt(
                    0, static_cast<std::int64_t>(lcs.size()) - 1))],
                false};
    return {&sparks[static_cast<std::size_t>(rng.uniformInt(
                0, static_cast<std::int64_t>(sparks.size()) - 1))],
            false};
}

DeploymentRecord
completionRecord(const WorkloadInstance &done, SimTime now,
                 const std::vector<testbed::CounterSample> &trace)
{
    DeploymentRecord record;
    record.id = done.id();
    record.name = done.spec().name;
    record.cls = done.spec().cls;
    record.mode = done.mode();
    record.arrival = done.arrivalTime();
    record.completion = now + 1;
    record.execTimeSec = done.executionTimeSec();
    if (record.cls == WorkloadClass::LatencyCritical) {
        const workloads::LatencyTail tail =
            done.tailLatenciesMs({0.99, 0.999});
        record.p99Ms = tail.ms[0];
        record.p999Ms = tail.ms[1];
#if ADRIAS_OBS_ENABLED
        if (obs::enabled()) {
            obs::MetricsRegistry &reg = obs::MetricsRegistry::global();
            static obs::Counter &pairs_c =
                reg.counter("workloads.lc_tail_pairs");
            static obs::Counter &exact_c =
                reg.counter("workloads.lc_tail_exact_pairs");
            pairs_c.add(tail.pairs);
            exact_c.add(tail.exactPairs);
        }
#endif
    }
    record.meanSlowdown = done.meanSlowdown();
    record.remoteTrafficGB = done.remoteTrafficGB();
    record.migrations = done.migrationCount();
    record.historyWindow = historyWindowAt(trace, record.arrival);
    record.executionWindow = telemetry::binSpan(
        trace, static_cast<std::size_t>(record.arrival), trace.size(),
        ScenarioRunner::kWindowBins);
    return record;
}

void
validateScenarioConfig(const ScenarioConfig &config)
{
    if (config.durationSec <= 0)
        fatal("ScenarioConfig: duration must be positive");
    if (config.spawnMinSec <= 0 || config.spawnMaxSec < config.spawnMinSec)
        fatal("ScenarioConfig: invalid spawn interval");
    if (config.ibenchFraction + config.lcFraction > 1.0)
        fatal("ScenarioConfig: arrival fractions exceed 1");
}

ScenarioRunner::ScenarioRunner(ScenarioConfig config_) : config(config_)
{
    validateScenarioConfig(config);
}

ScenarioResult
ScenarioRunner::run(ClusterPolicy &policy, RuntimePolicy *runtime)
{
#if ADRIAS_OBS_ENABLED
    obs::WallSpan run_span(
        "run", "scenario",
        {obs::arg("seed", static_cast<std::int64_t>(config.seed)),
         obs::arg("duration_s",
                  static_cast<std::int64_t>(config.durationSec)),
         obs::arg("policy", policy.name())});
#endif
    ScenarioEngine engine(config);
    while (!engine.finished())
        engine.stepTick(policy, runtime);
    return engine.finish();
}

std::vector<ScenarioResult>
runScenarioSweep(
    const std::vector<ScenarioConfig> &configs,
    const std::function<std::unique_ptr<ClusterPolicy>(std::size_t)>
        &makePolicy)
{
    // Policies first, serially and in order: a factory drawing from a
    // shared Rng must consume it identically at every thread count.
    std::vector<std::unique_ptr<ClusterPolicy>> policies;
    policies.reserve(configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
        policies.push_back(makePolicy(i));
        if (!policies.back())
            fatal("runScenarioSweep: makePolicy returned null");
    }

    // Each item owns its Testbed, Watcher, FaultInjector and policy,
    // and writes only its own slot — one seed per worker, no sharing.
    std::vector<ScenarioResult> results(configs.size());
    ThreadPool::global().parallelForEach(
        configs.size(), [&](std::size_t i) {
#if ADRIAS_OBS_ENABLED
            // One trace lane per sweep item: overlapping per-seed
            // simulations land on separate about:tracing rows.
            obs::ScopedLane lane(static_cast<int>(i) + 1);
#endif
            ScenarioRunner runner(configs[i]);
            results[i] = runner.run(*policies[i]);
        });
    return results;
}

std::vector<ScenarioResult>
runScenarioSweep(const std::vector<SweepItem> &items)
{
    std::vector<ScenarioConfig> configs;
    configs.reserve(items.size());
    for (const SweepItem &item : items)
        configs.push_back(item.config);
    return runScenarioSweep(
        configs, [&items](std::size_t i) {
            return std::make_unique<RandomPlacement>(
                items[i].policySeed);
        });
}

} // namespace adrias::scenario
