#include "scenario/engine.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"
#include "obs/obs.hh"
#include "testbed/topology.hh"

namespace adrias::scenario
{

using workloads::WorkloadInstance;
using workloads::WorkloadSpec;

namespace
{

void
saveMatrixSequence(io::BinaryWriter &out,
                   const std::vector<ml::Matrix> &sequence)
{
    out.writeU64(sequence.size());
    for (const ml::Matrix &step : sequence) {
        out.writeU64(step.rows());
        out.writeU64(step.cols());
        out.writeF64Vector(step.raw());
    }
}

[[nodiscard]] Result<std::vector<ml::Matrix>>
loadMatrixSequence(io::BinaryReader &in)
{
    std::vector<ml::Matrix> sequence;
    const std::uint64_t steps = in.readU64();
    for (std::uint64_t s = 0; s < steps && in.ok(); ++s) {
        const std::uint64_t rows = in.readU64();
        const std::uint64_t cols = in.readU64();
        std::vector<double> values = in.readF64Vector();
        if (!in.ok())
            break;
        if (values.size() != rows * cols)
            return makeError(ErrorCode::Geometry,
                             "matrix data size does not match its "
                             "declared shape");
        sequence.emplace_back(rows, cols, std::move(values));
    }
    if (!in.ok())
        return makeError(ErrorCode::Truncated,
                         "truncated matrix sequence");
    return sequence;
}

void
saveRecord(io::BinaryWriter &out, const DeploymentRecord &record)
{
    out.writeU64(record.id);
    out.writeString(record.name);
    out.writeU8(static_cast<std::uint8_t>(record.cls));
    out.writeU8(static_cast<std::uint8_t>(record.mode));
    out.writeI64(record.arrival);
    out.writeI64(record.completion);
    out.writeF64(record.execTimeSec);
    out.writeF64(record.p99Ms);
    out.writeF64(record.p999Ms);
    out.writeF64(record.meanLatencyMs);
    out.writeF64(record.meanSlowdown);
    out.writeF64(record.remoteTrafficGB);
    out.writeU64(record.migrations);
    saveMatrixSequence(out, record.historyWindow);
    saveMatrixSequence(out, record.executionWindow);
}

[[nodiscard]] Result<DeploymentRecord>
loadRecord(io::BinaryReader &in)
{
    DeploymentRecord record;
    record.id = in.readU64();
    record.name = in.readString();
    const std::uint8_t rawCls = in.readU8();
    const std::uint8_t rawMode = in.readU8();
    record.arrival = in.readI64();
    record.completion = in.readI64();
    record.execTimeSec = in.readF64();
    record.p99Ms = in.readF64();
    record.p999Ms = in.readF64();
    record.meanLatencyMs = in.readF64();
    record.meanSlowdown = in.readF64();
    record.remoteTrafficGB = in.readF64();
    record.migrations = in.readU64();
    if (!in.ok())
        return makeError(ErrorCode::Truncated,
                         "truncated deployment record");
    if (rawCls > static_cast<std::uint8_t>(WorkloadClass::Interference))
        return makeError(ErrorCode::BadNumber,
                         "deployment record has invalid workload class");
    if (rawMode > static_cast<std::uint8_t>(MemoryMode::Remote))
        return makeError(ErrorCode::BadNumber,
                         "deployment record has invalid memory mode");
    record.cls = static_cast<WorkloadClass>(rawCls);
    record.mode = static_cast<MemoryMode>(rawMode);
    Result<std::vector<ml::Matrix>> history = loadMatrixSequence(in);
    if (!history)
        return history.error();
    record.historyWindow = std::move(history.value());
    Result<std::vector<ml::Matrix>> execution = loadMatrixSequence(in);
    if (!execution)
        return execution.error();
    record.executionWindow = std::move(execution.value());
    return record;
}

} // namespace

ScenarioEngine::ScenarioEngine(ScenarioConfig config_)
    : config(std::move(config_)), rng(config.seed),
      bed(testbed::topologyByName(config.topology), rng.nextU64()),
      watcherState(kWindowSec * 4), injector(config.faults)
{
    if (config.durationSec <= 0)
        fatal("ScenarioEngine: duration must be positive");
    if (config.spawnMinSec <= 0 || config.spawnMaxSec < config.spawnMinSec)
        fatal("ScenarioEngine: invalid spawn interval");
    if (config.ibenchFraction + config.lcFraction > 1.0)
        fatal("ScenarioEngine: arrival fractions exceed 1");

    bed.setNoise(config.counterNoise);
    result.trace.reserve(static_cast<std::size_t>(config.durationSec));
    result.concurrency.reserve(
        static_cast<std::size_t>(config.durationSec));
    nextArrival = rng.uniformInt(config.spawnMinSec, config.spawnMaxSec);
}

void
ScenarioEngine::queueReplayDecision(const PlacementDecision &decision)
{
    replayQueue.push_back(decision);
}

void
ScenarioEngine::admitArrivals(PlacementPolicy &policy)
{
    while (now_ >= nextArrival) {
        nextArrival +=
            rng.uniformInt(config.spawnMinSec, config.spawnMaxSec);
        if (running.size() >= config.maxConcurrent) {
#if ADRIAS_OBS_ENABLED
            if (obs::enabled())
                obs::MetricsRegistry::global()
                    .counter("scenario.dropped_arrivals")
                    .add();
#endif
            continue; // testbed full: drop, as the prototype would
        }

        const ArrivalDraw arrival = drawArrival(config, rng);
        const WorkloadSpec *spec = arrival.spec;

        // Trashers model background interference and are always
        // placed randomly; applications go through the policy.
        MemoryMode mode;
        if (arrival.isIBench) {
            mode = rng.bernoulli(0.5) ? MemoryMode::Remote
                                      : MemoryMode::Local;
        } else {
            // The policy always runs — during journal replay too, so
            // its internal RNG/predictor state advances exactly as in
            // the original execution — and the re-derived decision is
            // verified against the write-ahead journal.
            mode = policy.place(*spec, watcherState, now_);
            const PlacementDecision decision{now_, nextId, spec->name,
                                             mode};
            if (!replayQueue.empty()) {
                const PlacementDecision expected = replayQueue.front();
                replayQueue.pop_front();
                if (!(expected == decision))
                    panic("ScenarioEngine: journal replay diverged at "
                          "t=" +
                          std::to_string(now_) + " (journal: " +
                          expected.specName + " id " +
                          std::to_string(expected.id) +
                          ", replay: " + decision.specName + " id " +
                          std::to_string(decision.id) + ")");
            } else if (decisionSink != nullptr) {
                // Write-ahead: the decision becomes durable before the
                // deployment exists anywhere else.
                decisionSink->onDecision(decision);
            }
        }

        auto instance = std::make_unique<WorkloadInstance>(
            nextId++, *spec, mode, now_, rng.nextU64());
        running.push_back(std::move(instance));

#if ADRIAS_OBS_ENABLED
        if (obs::enabled()) {
            obs::MetricsRegistry::global()
                .counter("scenario.arrivals")
                .add();
            if (obs::Tracer::global().enabled()) {
                obs::Tracer::global().simInstant(
                    "arrival:" + spec->name, "scenario", now_,
                    {obs::arg("class", toString(spec->cls)),
                     obs::arg("mode", toString(mode))});
            }
        }
#endif
    }
}

void
ScenarioEngine::harvestCompletions(PlacementPolicy &policy)
{
    for (std::size_t i = running.size(); i-- > 0;) {
        if (!running[i]->finished())
            continue;
        DeploymentRecord record =
            completionRecord(*running[i], now_, result.trace);
        policy.onCompletion(record);
#if ADRIAS_OBS_ENABLED
        if (obs::enabled()) {
            obs::MetricsRegistry::global()
                .counter("scenario.completions")
                .add();
            if (obs::Tracer::global().enabled()) {
                obs::Tracer::global().simInstant(
                    "complete:" + record.name, "scenario", now_ + 1,
                    {obs::arg("mode", toString(record.mode)),
                     obs::arg("exec_s", record.execTimeSec),
                     obs::arg("slowdown", record.meanSlowdown)});
            }
        }
#endif
        result.records.push_back(std::move(record));
        running.erase(running.begin() + static_cast<std::ptrdiff_t>(i));
    }
}

void
ScenarioEngine::stepTick(PlacementPolicy &policy, RuntimePolicy *runtime)
{
    if (finished())
        panic("ScenarioEngine::stepTick past the configured duration");

    // --- arrivals -----------------------------------------------------
    admitArrivals(policy);

    // --- one second of contention -------------------------------------
    // Injected link faults derate the channel before the tick
    // resolves contention.
    const fault::LinkState link = injector.linkStateAt(now_);
    bed.setChannelFault(link.bwScale, link.latencyScale);

    std::vector<testbed::LoadDescriptor> loads;
    loads.reserve(running.size());
    for (const auto &instance : running)
        loads.push_back(instance->load());
    const testbed::TickResult tick = bed.tick(loads);

    // --- telemetry, through the fault injector ------------------------
    // The Watcher sees what a real deployment would: dropped, stale or
    // corrupted samples; it repairs what it can and the trace records
    // its observed (post-repair) view.
    testbed::CounterSample observed = tick.counters;
    const fault::CounterAction action = injector.applyCounterFaults(
        observed, result.trace.empty() ? nullptr : &result.trace.back(),
        now_);
    if (action == fault::CounterAction::Drop)
        watcherState.recordDropped(now_);
    else
        watcherState.record(observed, now_);
    result.trace.push_back(watcherState.latest());
    result.concurrency.push_back(static_cast<int>(running.size()));
    result.totalRemoteTrafficGB += tick.remoteTrafficGBps;

#if ADRIAS_OBS_ENABLED
    if (obs::enabled()) {
        static obs::Counter &ticks_c =
            obs::MetricsRegistry::global().counter("scenario.ticks");
        ticks_c.add();
        if (obs::Tracer::global().enabled()) {
            obs::Tracer::global().simSpan(
                "tick", "scenario", now_, now_ + 1,
                {obs::arg("concurrency",
                          static_cast<std::int64_t>(running.size())),
                 obs::arg("pressure", tick.channelPressure)});
        }
    }
#endif

    // --- progress & completion ----------------------------------------
    for (std::size_t i = 0; i < running.size(); ++i)
        running[i]->advance(tick.outcomes[i], now_ + 1);

    // --- L2 runtime management ----------------------------------------
    if (runtime) {
        std::vector<WorkloadInstance *> live;
        live.reserve(running.size());
        for (const auto &instance : running)
            live.push_back(instance.get());
        runtime->onTick(live, tick, now_ + 1);
    }

    harvestCompletions(policy);
    ++now_;
}

ScenarioResult
ScenarioEngine::finish()
{
    if (!finished())
        panic("ScenarioEngine::finish before the scenario completed");
    result.faultSummary = injector.stats();
    result.watcherHealth = watcherState.health();
    return std::move(result);
}

void
ScenarioEngine::saveState(io::BinaryWriter &out) const
{
    if (!replayQueue.empty())
        panic("ScenarioEngine::saveState during journal replay");

    out.writeI64(now_);
    out.writeU64(nextId);
    out.writeI64(nextArrival);
    rng.saveState(out);
    bed.saveState(out);
    watcherState.saveState(out);
    injector.saveState(out);

    out.writeU64(result.trace.size());
    for (const testbed::CounterSample &sample : result.trace)
        for (double event : sample)
            out.writeF64(event);
    out.writeI32Vector(result.concurrency);
    out.writeF64(result.totalRemoteTrafficGB);
    out.writeU64(result.records.size());
    for (const DeploymentRecord &record : result.records)
        saveRecord(out, record);

    out.writeU64(running.size());
    for (const auto &instance : running)
        instance->saveState(out);

    // Topology stamp, last so every historical field keeps its offset:
    // a snapshot only restores into an engine built on the same rack.
    out.writeString(config.topology);
}

Result<void>
ScenarioEngine::restoreState(io::BinaryReader &in)
{
    now_ = in.readI64();
    nextId = in.readU64();
    nextArrival = in.readI64();
    rng.restoreState(in);
    if (Result<void> restored = bed.restoreState(in); !restored)
        return restored;
    if (Result<void> restored = watcherState.restoreState(in); !restored)
        return restored;
    if (Result<void> restored = injector.restoreState(in); !restored)
        return restored;

    const std::uint64_t traceLen = in.readU64();
    if (traceLen > static_cast<std::uint64_t>(config.durationSec))
        return makeError(ErrorCode::Geometry,
                         "ScenarioEngine: snapshot trace longer than the "
                         "configured duration");
    result.trace.clear();
    result.trace.reserve(static_cast<std::size_t>(config.durationSec));
    for (std::uint64_t i = 0; i < traceLen && in.ok(); ++i) {
        testbed::CounterSample sample{};
        for (double &event : sample)
            event = in.readF64();
        result.trace.push_back(sample);
    }
    result.concurrency = in.readI32Vector();
    result.concurrency.reserve(
        static_cast<std::size_t>(config.durationSec));
    result.totalRemoteTrafficGB = in.readF64();
    const std::uint64_t recordCount = in.readU64();
    result.records.clear();
    for (std::uint64_t i = 0; i < recordCount && in.ok(); ++i) {
        Result<DeploymentRecord> record = loadRecord(in);
        if (!record)
            return record.error();
        result.records.push_back(std::move(record.value()));
    }

    const std::uint64_t runningCount = in.readU64();
    if (runningCount > config.maxConcurrent)
        return makeError(ErrorCode::Geometry,
                         "ScenarioEngine: snapshot holds more running "
                         "instances than the concurrency cap");
    running.clear();
    for (std::uint64_t i = 0; i < runningCount && in.ok(); ++i) {
        Result<std::unique_ptr<WorkloadInstance>> instance =
            WorkloadInstance::restoreFromState(in);
        if (!instance)
            return instance.error();
        running.push_back(std::move(instance.value()));
    }
    const std::string snapshotTopology = in.readString();
    if (!in.ok())
        return makeError(ErrorCode::Truncated,
                         "ScenarioEngine: truncated snapshot section");
    if (snapshotTopology != config.topology)
        return makeError(ErrorCode::Geometry,
                         "ScenarioEngine: snapshot was taken on topology '" +
                             snapshotTopology +
                             "' but this engine runs on '" +
                             config.topology + "'");
    if (now_ < 0 || result.trace.size() != static_cast<std::size_t>(now_))
        return makeError(ErrorCode::Geometry,
                         "ScenarioEngine: snapshot trace length does not "
                         "match its tick cursor");
    return {};
}

} // namespace adrias::scenario
