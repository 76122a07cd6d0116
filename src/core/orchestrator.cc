#include "core/orchestrator.hh"

#include <cmath>
#include <limits>
#include <sstream>

#include "common/logging.hh"
#include "common/table.hh"
#include "obs/obs.hh"
#include "scenario/runner.hh"

namespace adrias::core
{

#if ADRIAS_OBS_ENABLED
namespace
{

/**
 * Report one placement decision to the observability layer: counters
 * by outcome and decision path, plus a sim-time instant carrying the
 * full comparison operands (NaN marks an operand the path never
 * computed — a fallback decision has no t̂, a BE decision no p̂99).
 */
void
recordPlacement(const workloads::WorkloadSpec &spec, SimTime now,
                MemoryMode mode, const char *path, double t_local,
                double beta, double t_remote, double p99_remote,
                double qos)
{
    if (!obs::enabled())
        return;
    obs::MetricsRegistry &reg = obs::MetricsRegistry::global();
    reg.counter("orchestrator.decisions").add();
    reg.counter(mode == MemoryMode::Remote
                    ? "orchestrator.remote_placements"
                    : "orchestrator.local_placements")
        .add();
    reg.counter(std::string("orchestrator.path.") + path).add();
    if (!obs::Tracer::global().enabled())
        return;
    obs::Tracer::global().simInstant(
        "place", "orchestrator", now,
        {obs::arg("app", spec.name), obs::arg("class", toString(spec.cls)),
         obs::arg("decision", toString(mode)), obs::arg("path", path),
         obs::arg("t_local", t_local), obs::arg("beta", beta),
         obs::arg("t_remote", t_remote),
         obs::arg("p99_remote", p99_remote), obs::arg("qos", qos)});
}

} // namespace
#endif // ADRIAS_OBS_ENABLED

AdriasOrchestrator::AdriasOrchestrator(const models::PredictorBase &predictor_,
                                       scenario::SignatureStore &signatures_,
                                       AdriasConfig config_)
    : predictor(&predictor_), signatures(&signatures_), policy(config_)
{
    if (policy.beta <= 0.0 || policy.beta > 1.5)
        fatal("AdriasOrchestrator: beta out of sensible range");
    if (!predictor->trained())
        fatal("AdriasOrchestrator requires a trained Predictor");
}

AdriasOrchestrator::AdriasOrchestrator(models::GuardedPredictor &guard_,
                                       scenario::SignatureStore &signatures_,
                                       AdriasConfig config_)
    : AdriasOrchestrator(static_cast<const models::PredictorBase &>(guard_),
                         signatures_, config_)
{
    guard = &guard_;
}

std::string
AdriasOrchestrator::name() const
{
    std::ostringstream out;
    out << "adrias-b" << formatDouble(policy.beta, 1);
    return out.str();
}

double
AdriasOrchestrator::qosFor(const std::string &app_name) const
{
    auto it = policy.qosP99Ms.find(app_name);
    return it == policy.qosP99Ms.end() ? policy.defaultQosP99Ms
                                       : it->second;
}

MemoryMode
AdriasOrchestrator::fallbackPlacement(const workloads::WorkloadSpec &spec)
{
    ++decisionStats.fallbackPlacements;
    return spec.cls == WorkloadClass::LatencyCritical
               ? policy.degradedLcMode
               : policy.degradedBeMode;
}

bool
AdriasOrchestrator::degraded() const
{
    return guard != nullptr && guard->degraded();
}

OrchestratorStats
AdriasOrchestrator::stats() const
{
    OrchestratorStats merged = decisionStats;
    if (guard != nullptr) {
        merged.breakerTrips = guard->breaker().stats().trips;
        merged.breakerRecoveries = guard->breaker().stats().recoveries;
    }
    merged.samplesRepaired = lastWatcherHealth.samplesRepaired;
    merged.samplesDropped = lastWatcherHealth.samplesDropped;
    return merged;
}

MemoryMode
AdriasOrchestrator::place(const workloads::WorkloadSpec &spec,
                          const telemetry::Watcher &watcher, SimTime now)
{
#if ADRIAS_OBS_ENABLED
    obs::WallSpan place_span("place", "orchestrator");
    // Comparison operands for the decision instant; NaN marks an
    // operand this decision path never computed.
    constexpr double kUnset = std::numeric_limits<double>::quiet_NaN();
    double obs_t_local = kUnset;
    double obs_t_remote = kUnset;
    double obs_p99_remote = kUnset;
    double obs_qos = kUnset;
    const char *obs_path = "model";
#endif
    if (guard != nullptr)
        guard->beginDecision(now);
    lastWatcherHealth = watcher.health();

    // Unknown application: bootstrap on remote memory and capture its
    // signature from this run (paper §V-C).
    if (!signatures->has(spec.name)) {
        ++decisionStats.bootstrapPlacements;
        ++decisionStats.remotePlacements;
#if ADRIAS_OBS_ENABLED
        recordPlacement(spec, now, MemoryMode::Remote, "bootstrap",
                        kUnset, policy.beta, kUnset, kUnset, kUnset);
#endif
        return MemoryMode::Remote;
    }

    // Cold telemetry (scenario warm-up): fall back to the conventional
    // placement until a history window exists.
    if (watcher.sampleCount() == 0) {
        ++decisionStats.localPlacements;
#if ADRIAS_OBS_ENABLED
        recordPlacement(spec, now, MemoryMode::Local, "cold", kUnset,
                        policy.beta, kUnset, kUnset, kUnset);
#endif
        return MemoryMode::Local;
    }

    const auto history = watcher.binnedWindow(
        scenario::ScenarioRunner::kWindowSec,
        scenario::ScenarioRunner::kWindowBins);
    const auto &signature = signatures->get(spec.name);

    MemoryMode mode = MemoryMode::Local;
    try {
        if (spec.cls == WorkloadClass::BestEffort) {
            // Both hypotheticals share S, Ŝ and k: one fused query
            // runs them through the LSTMs once and only the head at
            // b2 (the same pointer dedupe the daemon relies on).
            const std::vector<double> t = predictor->predictPerformanceBatch(
                spec.cls, {{&history, &signature, MemoryMode::Local},
                           {&history, &signature, MemoryMode::Remote}});
            const double t_local = t[0];
            const double t_remote = t[1];
            mode = decideBestEffort(t_local, t_remote, policy.beta);
#if ADRIAS_OBS_ENABLED
            obs_t_local = t_local;
            obs_t_remote = t_remote;
#endif
        } else if (spec.cls == WorkloadClass::LatencyCritical) {
            const double p99_remote = predictor->predictPerformance(
                spec.cls, history, signature, MemoryMode::Remote);
            mode = decideLatencyCritical(p99_remote, qosFor(spec.name));
#if ADRIAS_OBS_ENABLED
            obs_p99_remote = p99_remote;
            obs_qos = qosFor(spec.name);
#endif
        } else {
            panic("AdriasOrchestrator asked to place a trasher");
        }
    } catch (const models::PredictionUnavailable &err) {
        // Degraded mode: the prediction path is sick (breaker open,
        // deadline blown, crash window, invalid inputs).  Keep placing
        // with the heuristic instead of taking the placement loop down.
        ++decisionStats.predictionFailures;
        logWarn(std::string("AdriasOrchestrator degraded: ") +
                err.what());
        mode = fallbackPlacement(spec);
#if ADRIAS_OBS_ENABLED
        obs_path = "fallback";
#endif
    }

    if (mode == MemoryMode::Remote)
        ++decisionStats.remotePlacements;
    else
        ++decisionStats.localPlacements;
#if ADRIAS_OBS_ENABLED
    recordPlacement(spec, now, mode, obs_path, obs_t_local, policy.beta,
                    obs_t_remote, obs_p99_remote, obs_qos);
#endif
    return mode;
}

void
AdriasOrchestrator::onCompletion(const scenario::DeploymentRecord &record)
{
    if (record.cls == WorkloadClass::Interference)
        return;
    // First encounter finished its bootstrap run on remote memory:
    // store the captured execution-window metrics as its signature.
    if (!signatures->has(record.name) && !record.executionWindow.empty())
        signatures->put(record.name, record.executionWindow);
}

void
AdriasOrchestrator::saveState(io::BinaryWriter &out) const
{
    out.writeU64(decisionStats.localPlacements);
    out.writeU64(decisionStats.remotePlacements);
    out.writeU64(decisionStats.bootstrapPlacements);
    out.writeU64(decisionStats.fallbackPlacements);
    out.writeU64(decisionStats.predictionFailures);
    out.writeU64(decisionStats.breakerTrips);
    out.writeU64(decisionStats.breakerRecoveries);
    out.writeU64(decisionStats.samplesRepaired);
    out.writeU64(decisionStats.samplesDropped);
    out.writeU64(lastWatcherHealth.samplesAccepted);
    out.writeU64(lastWatcherHealth.samplesRepaired);
    out.writeU64(lastWatcherHealth.eventsRepaired);
    out.writeU64(lastWatcherHealth.samplesDropped);
    out.writeU64(lastWatcherHealth.stalenessSec);
    out.writeU64(lastWatcherHealth.maxStalenessSec);
    signatures->saveState(out);
}

Result<void>
AdriasOrchestrator::restoreState(io::BinaryReader &in)
{
    decisionStats.localPlacements = in.readU64();
    decisionStats.remotePlacements = in.readU64();
    decisionStats.bootstrapPlacements = in.readU64();
    decisionStats.fallbackPlacements = in.readU64();
    decisionStats.predictionFailures = in.readU64();
    decisionStats.breakerTrips = in.readU64();
    decisionStats.breakerRecoveries = in.readU64();
    decisionStats.samplesRepaired = in.readU64();
    decisionStats.samplesDropped = in.readU64();
    lastWatcherHealth.samplesAccepted = in.readU64();
    lastWatcherHealth.samplesRepaired = in.readU64();
    lastWatcherHealth.eventsRepaired = in.readU64();
    lastWatcherHealth.samplesDropped = in.readU64();
    lastWatcherHealth.stalenessSec = in.readU64();
    lastWatcherHealth.maxStalenessSec = in.readU64();
    if (!in.ok())
        return makeError(ErrorCode::Truncated,
                         "AdriasOrchestrator: truncated snapshot section");
    return signatures->restoreState(in);
}

} // namespace adrias::core
