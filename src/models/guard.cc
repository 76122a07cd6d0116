#include "models/guard.hh"

#include <cmath>

#include "common/logging.hh"
#include "obs/obs.hh"

namespace adrias::models
{

namespace
{

/** @return true when every entry of the sequence is finite. */
bool
sequenceFinite(const std::vector<ml::Matrix> &sequence)
{
    for (const ml::Matrix &step : sequence)
        for (double v : step.raw())
            if (!std::isfinite(v))
                return false;
    return true;
}

} // namespace

GuardedPredictor::GuardedPredictor(const PredictorBase &inner,
                                   PredictorGuardConfig config,
                                   fault::FaultInjector *injector)
    : wrapped(&inner), knobs(config), faults(injector),
      breakerGate(config.breaker)
{
    if (knobs.deadlineMs <= 0.0)
        fatal("GuardedPredictor: deadline must be positive");
    if (knobs.baseLatencyMs < 0.0)
        fatal("GuardedPredictor: base latency must be non-negative");
}

void
GuardedPredictor::obsBreakerSync() const
{
#if ADRIAS_OBS_ENABLED
    const fault::BreakerState current = breakerGate.state();
    if (current == obsBreakerState)
        return;
    obsBreakerState = current;
    if (!obs::enabled())
        return;
    obs::MetricsRegistry::global()
        .counter("predictor.breaker_transitions")
        .add();
    if (obs::Tracer::global().enabled()) {
        obs::Tracer::global().simInstant(
            std::string("breaker.") + fault::toString(current),
            "predictor", decisionTime);
    }
#endif
}

void
GuardedPredictor::fail(const std::string &reason,
                       bool breaker_failure) const
{
    if (breaker_failure) {
        ++tallies.failures;
        breakerGate.recordFailure(decisionTime);
        obsBreakerSync();
    }
    throw PredictionUnavailable("GuardedPredictor: " + reason);
}

void
GuardedPredictor::admitCall(std::uint64_t salt, std::size_t weight) const
{
    tallies.calls += weight;
#if ADRIAS_OBS_ENABLED
    if (obs::enabled()) {
        static obs::Counter &calls_c =
            obs::MetricsRegistry::global().counter("predictor.calls");
        calls_c.add(weight);
    }
#endif

    if (!breakerGate.allowRequest(decisionTime)) {
        obsBreakerSync();
        ++tallies.rejectedByBreaker;
#if ADRIAS_OBS_ENABLED
        if (obs::enabled())
            obs::MetricsRegistry::global()
                .counter("predictor.breaker_rejections")
                .add();
#endif
        throw PredictionUnavailable(
            "GuardedPredictor: circuit breaker open (backoff " +
            std::to_string(breakerGate.currentBackoffSec()) + " s)");
    }
    obsBreakerSync(); // allowRequest can move Open -> HalfOpen

    // Injected crash window: the inference call dies outright.
    if (faults && faults->predictorCrashAt(decisionTime, salt)) {
        ++tallies.injectedCrashes;
        fail("inference crashed", true);
    }

    // Per-call deadline against the modelled (possibly spiked) latency.
    double latency_ms = knobs.baseLatencyMs;
    if (faults)
        latency_ms = faults->predictorLatencyMsAt(decisionTime, salt,
                                                  latency_ms);
#if ADRIAS_OBS_ENABLED
    // Record the modelled inference latency whether or not it beats
    // the deadline: the histogram should show the spikes too.
    if (obs::enabled()) {
        static obs::Histogram &latency_h =
            obs::MetricsRegistry::global().histogram(
                "predictor.latency_ms");
        latency_h.observe(latency_ms, decisionTime);
    }
#endif
    // Hard budget, exclusive: an inference consuming the entire budget
    // leaves nothing for the decision it feeds, so landing exactly on
    // the deadline is a miss — the same boundary rule the serving
    // layer applies to request deadlines (DESIGN.md §15).
    if (latency_ms >= knobs.deadlineMs) {
        ++tallies.deadlineExceeded;
        fail("inference deadline exceeded (" +
                 std::to_string(latency_ms) + " ms)",
             true);
    }
}

ml::Matrix
GuardedPredictor::predictSystemState(
    const telemetry::Watcher &watcher) const
{
#if ADRIAS_OBS_ENABLED
    obs::WallSpan predict_span("predict_system_state", "predictor");
#endif
    const std::uint64_t salt = callCounter++;
    admitCall(salt);
    if (watcher.sampleCount() == 0) {
        ++tallies.invalidInputs;
        throw PredictionUnavailable(
            "GuardedPredictor: no telemetry to predict from");
    }
    ml::Matrix forecast;
    try {
        forecast = wrapped->predictSystemState(watcher);
    } catch (const std::exception &err) {
        fail(std::string("system-state model threw: ") + err.what(),
             true);
    }
    for (double v : forecast.raw())
        if (!std::isfinite(v))
            fail("system-state forecast is not finite", true);
    ++tallies.served;
    breakerGate.recordSuccess(decisionTime);
    obsBreakerSync();
#if ADRIAS_OBS_ENABLED
    if (obs::enabled()) {
        static obs::Counter &served_c =
            obs::MetricsRegistry::global().counter("predictor.served");
        served_c.add();
    }
#endif
    return forecast;
}

double
GuardedPredictor::predictPerformance(
    WorkloadClass cls, const std::vector<ml::Matrix> &history,
    const std::vector<ml::Matrix> &signature, MemoryMode mode) const
{
    return predictPerformanceBatch(cls, {{&history, &signature, mode}})
        .front();
}

std::vector<double>
GuardedPredictor::predictPerformanceBatch(
    WorkloadClass cls, const std::vector<PerfQuery> &queries) const
{
#if ADRIAS_OBS_ENABLED
    obs::WallSpan predict_span("predict_performance_batch", "predictor");
#endif
    if (queries.empty())
        return {};
    const std::uint64_t salt = callCounter++;
    admitCall(salt, queries.size());

    // Input validation is not a model failure: reject without charging
    // the breaker.
    for (const PerfQuery &query : queries) {
        if (query.history == nullptr || query.history->empty() ||
            query.signature == nullptr || query.signature->empty() ||
            !sequenceFinite(*query.history) ||
            !sequenceFinite(*query.signature)) {
            ++tallies.invalidInputs;
            throw PredictionUnavailable(
                "GuardedPredictor: invalid model inputs");
        }
    }

    std::vector<double> predictions;
    try {
        predictions = wrapped->predictPerformanceBatch(cls, queries);
    } catch (const std::exception &err) {
        fail(std::string("performance model threw: ") + err.what(),
             true);
    }
    if (predictions.size() != queries.size())
        fail("batched prediction count mismatch", true);
    for (double prediction : predictions)
        if (!std::isfinite(prediction) || prediction < 0.0)
            fail("performance prediction is not finite", true);
    tallies.served += predictions.size();
    breakerGate.recordSuccess(decisionTime);
    obsBreakerSync();
#if ADRIAS_OBS_ENABLED
    if (obs::enabled()) {
        static obs::Counter &served_c =
            obs::MetricsRegistry::global().counter("predictor.served");
        served_c.add(predictions.size());
    }
#endif
    return predictions;
}

void
GuardedPredictor::saveState(io::BinaryWriter &out) const
{
    breakerGate.saveState(out);
    out.writeU64(tallies.calls);
    out.writeU64(tallies.served);
    out.writeU64(tallies.failures);
    out.writeU64(tallies.deadlineExceeded);
    out.writeU64(tallies.invalidInputs);
    out.writeU64(tallies.rejectedByBreaker);
    out.writeU64(tallies.injectedCrashes);
    out.writeU64(callCounter);
    out.writeI64(decisionTime);
}

Result<void>
GuardedPredictor::restoreState(io::BinaryReader &in)
{
    if (Result<void> restored = breakerGate.restoreState(in); !restored)
        return restored;
    tallies.calls = in.readU64();
    tallies.served = in.readU64();
    tallies.failures = in.readU64();
    tallies.deadlineExceeded = in.readU64();
    tallies.invalidInputs = in.readU64();
    tallies.rejectedByBreaker = in.readU64();
    tallies.injectedCrashes = in.readU64();
    callCounter = in.readU64();
    decisionTime = in.readI64();
    if (!in.ok())
        return makeError(ErrorCode::Truncated,
                         "GuardedPredictor: truncated snapshot section");
    // obs transition detection restarts from the restored state.
    obsBreakerState = breakerGate.state();
    return {};
}

} // namespace adrias::models
