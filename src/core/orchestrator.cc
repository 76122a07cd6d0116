#include "core/orchestrator.hh"

#include <algorithm>
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
                const scenario::ClusterPlacement &placement,
                const char *path, double t_local, double beta,
                double t_remote, double p99_remote, double qos)
{
    const MemoryMode mode = placement.mode;
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
         obs::arg("node", static_cast<std::int64_t>(placement.node)),
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

std::vector<AdriasOrchestrator::Candidate>
AdriasOrchestrator::predictAll(
    const workloads::WorkloadSpec &spec,
    const std::vector<scenario::NodeView> &nodes) const
{
    const auto &signature = signatures->get(spec.name);
    // Every window is stored before any query takes its address, so
    // the borrowed PerfQuery pointers stay valid for the batch call.
    std::vector<std::vector<ml::Matrix>> histories(nodes.size());
    std::vector<Candidate> candidates;
    std::vector<models::PredictorBase::PerfQuery> queries;
    candidates.reserve(nodes.size() * 2);
    queries.reserve(nodes.size() * 2);
    for (std::size_t n = 0; n < nodes.size(); ++n) {
        if (nodes[n].watcher->sampleCount() == 0)
            continue;
        histories[n] = nodes[n].watcher->binnedWindow(
            scenario::ScenarioRunner::kWindowSec,
            scenario::ScenarioRunner::kWindowBins);
        for (MemoryMode mode : {MemoryMode::Local, MemoryMode::Remote}) {
            candidates.push_back({n, mode, 0.0, nodes[n].running});
            queries.push_back({&histories[n], &signature, mode});
        }
    }

    // One fused query per decision: the shared signature is encoded
    // once and each node's window once, whatever the node count.
    const std::vector<double> predicted =
        predictor->predictPerformanceBatch(spec.cls, queries);
    for (std::size_t i = 0; i < candidates.size(); ++i)
        candidates[i].predicted = predicted[i];
    return candidates;
}

std::size_t
AdriasOrchestrator::choose(const workloads::WorkloadSpec &spec,
                           const std::vector<Candidate> &candidates) const
{
    // Is `c` a clear win over `best`, or an iso-QoS tie on a less
    // loaded node (cluster-level efficiency, §VII)?
    auto beats = [](const Candidate &c, const Candidate &best) {
        return c.predicted < best.predicted * (1.0 - kIsoMargin) ||
               (c.predicted <= best.predicted * (1.0 + kIsoMargin) &&
                c.running < best.running);
    };
    constexpr std::size_t kNone = SIZE_MAX;

    if (spec.cls == WorkloadClass::BestEffort) {
        // Per node, apply the β rule; across nodes, prefer the best
        // predicted time.
        std::size_t best = kNone;
        for (std::size_t i = 0; i < candidates.size(); i += 2) {
            const std::size_t chosen =
                decideBestEffort(candidates[i].predicted,
                                 candidates[i + 1].predicted,
                                 policy.beta) == MemoryMode::Local
                    ? i
                    : i + 1;
            if (best == kNone || beats(candidates[chosen], candidates[best]))
                best = chosen;
        }
        return best;
    }

    // Latency-critical: prefer a remote placement that meets QoS (most
    // headroom, least-loaded on iso-QoS); otherwise the safest local.
    const double qos = qosFor(spec.name);
    std::size_t best_remote = kNone;
    std::size_t best_local = kNone;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
        const Candidate &candidate = candidates[i];
        if (candidate.mode == MemoryMode::Remote) {
            if (decideLatencyCritical(candidate.predicted, qos) !=
                MemoryMode::Remote)
                continue;
            if (best_remote == kNone ||
                beats(candidate, candidates[best_remote]))
                best_remote = i;
        } else if (best_local == kNone ||
                   candidate.predicted < candidates[best_local].predicted) {
            best_local = i;
        }
    }
    return best_remote != kNone ? best_remote : best_local;
}

scenario::ClusterPlacement
AdriasOrchestrator::place(const workloads::WorkloadSpec &spec,
                          const std::vector<scenario::NodeView> &nodes,
                          SimTime now)
{
    if (nodes.empty())
        fatal("AdriasOrchestrator: empty cluster");
#if ADRIAS_OBS_ENABLED
    obs::WallSpan place_span("place", "orchestrator");
    // Comparison operands for the decision instant, those of the chosen
    // node; NaN marks an operand this decision path never computed.
    constexpr double kUnset = std::numeric_limits<double>::quiet_NaN();
    double obs_t_local = kUnset;
    double obs_t_remote = kUnset;
    double obs_p99_remote = kUnset;
    double obs_qos = kUnset;
    const char *obs_path = "model";
#endif
    if (guard != nullptr)
        guard->beginDecision(now);
    lastWatcherHealth = {};
    for (const scenario::NodeView &node : nodes) {
        const telemetry::WatcherHealth health = node.watcher->health();
        lastWatcherHealth.samplesAccepted += health.samplesAccepted;
        lastWatcherHealth.samplesRepaired += health.samplesRepaired;
        lastWatcherHealth.eventsRepaired += health.eventsRepaired;
        lastWatcherHealth.samplesDropped += health.samplesDropped;
        lastWatcherHealth.stalenessSec =
            std::max(lastWatcherHealth.stalenessSec, health.stalenessSec);
        lastWatcherHealth.maxStalenessSec = std::max(
            lastWatcherHealth.maxStalenessSec, health.maxStalenessSec);
    }
    const std::size_t least_loaded = scenario::leastLoadedNode(nodes);

    // Unknown application: bootstrap on remote memory and capture its
    // signature from this run (paper §V-C).
    if (!signatures->has(spec.name)) {
        ++decisionStats.bootstrapPlacements;
        ++decisionStats.remotePlacements;
        const scenario::ClusterPlacement placement{least_loaded,
                                                   MemoryMode::Remote};
#if ADRIAS_OBS_ENABLED
        recordPlacement(spec, now, placement, "bootstrap", kUnset,
                        policy.beta, kUnset, kUnset, kUnset);
#endif
        return placement;
    }

    // Cold telemetry everywhere (scenario warm-up): fall back to the
    // conventional placement until a history window exists.
    const bool all_cold =
        std::none_of(nodes.begin(), nodes.end(),
                     [](const scenario::NodeView &node) {
                         return node.watcher->sampleCount() > 0;
                     });
    if (all_cold) {
        ++decisionStats.localPlacements;
        const scenario::ClusterPlacement placement{least_loaded,
                                                   MemoryMode::Local};
#if ADRIAS_OBS_ENABLED
        recordPlacement(spec, now, placement, "cold", kUnset,
                        policy.beta, kUnset, kUnset, kUnset);
#endif
        return placement;
    }

    if (spec.cls == WorkloadClass::Interference)
        panic("AdriasOrchestrator asked to place a trasher");

    scenario::ClusterPlacement placement;
    try {
        const std::vector<Candidate> candidates = predictAll(spec, nodes);
        const std::size_t chosen = choose(spec, candidates);
        placement = {candidates[chosen].node, candidates[chosen].mode};
#if ADRIAS_OBS_ENABLED
        // Rows come in (Local, Remote) pairs per warm node.
        const double t_local = candidates[chosen & ~std::size_t{1}].predicted;
        const double t_remote = candidates[chosen | 1].predicted;
        if (spec.cls == WorkloadClass::BestEffort) {
            obs_t_local = t_local;
            obs_t_remote = t_remote;
        } else {
            obs_p99_remote = t_remote;
            obs_qos = qosFor(spec.name);
        }
#endif
    } catch (const models::PredictionUnavailable &err) {
        // Degraded mode: the prediction path is sick (breaker open,
        // deadline blown, crash window, invalid inputs).  Keep placing
        // with the heuristic instead of taking the placement loop down.
        ++decisionStats.predictionFailures;
        logWarn(std::string("AdriasOrchestrator degraded: ") +
                err.what());
        placement = {least_loaded, fallbackPlacement(spec)};
#if ADRIAS_OBS_ENABLED
        obs_path = "fallback";
#endif
    }

    if (placement.mode == MemoryMode::Remote)
        ++decisionStats.remotePlacements;
    else
        ++decisionStats.localPlacements;
#if ADRIAS_OBS_ENABLED
    recordPlacement(spec, now, placement, obs_path, obs_t_local,
                    policy.beta, obs_t_remote, obs_p99_remote, obs_qos);
#endif
    return placement;
}

MemoryMode
AdriasOrchestrator::place(const workloads::WorkloadSpec &spec,
                          const telemetry::Watcher &watcher, SimTime now)
{
    return place(spec, std::vector<scenario::NodeView>{{&watcher, 0}}, now)
        .mode;
}

scenario::ClusterPlacement
AdriasOrchestrator::placeRack(const workloads::WorkloadSpec &spec,
                              const std::vector<scenario::NodeView> &nodes,
                              const scenario::RackView &rack, SimTime now)
{
    const scenario::ClusterPlacement chosen = place(spec, nodes, now);
    if (chosen.mode != MemoryMode::Remote)
        return chosen;
    scenario::ClusterPlacement routed =
        scenario::routeOnRack(chosen, spec, rack);
    if (routed.mode == MemoryMode::Remote)
        return routed;

    // The predicted-best node cannot reach disaggregated memory any
    // more.  Keeping the mode matters more than keeping the node for a
    // remote-preferring decision, so retry the surviving nodes from
    // least loaded upward before degrading to the local pool.
    std::vector<std::size_t> order;
    order.reserve(nodes.size());
    for (std::size_t n = 0; n < nodes.size(); ++n)
        if (n != chosen.node)
            order.push_back(n);
    std::stable_sort(order.begin(), order.end(),
                     [&nodes](std::size_t a, std::size_t b) {
                         return nodes[a].running < nodes[b].running;
                     });
    for (std::size_t n : order) {
        scenario::ClusterPlacement alt = chosen;
        alt.node = n;
        alt = scenario::routeOnRack(alt, spec, rack);
        if (alt.mode == MemoryMode::Remote)
            return alt;
    }
    return routed;
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
