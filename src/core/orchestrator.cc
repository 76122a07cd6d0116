#include "core/orchestrator.hh"

#include <algorithm>
#include <sstream>
#include <utility>

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
                const Decision &decision, double beta)
{
    if (!obs::enabled())
        return;
    const std::string path = toString(decision.path);
    obs::MetricsRegistry &reg = obs::MetricsRegistry::global();
    reg.counter("orchestrator.decisions").add();
    reg.counter(decision.mode == MemoryMode::Remote
                    ? "orchestrator.remote_placements"
                    : "orchestrator.local_placements")
        .add();
    reg.counter("orchestrator.path." + path).add();
    if (!obs::Tracer::global().enabled())
        return;
    obs::Tracer::global().simInstant(
        "place", "orchestrator", now,
        {obs::arg("app", spec.name), obs::arg("class", toString(spec.cls)),
         obs::arg("node", static_cast<std::int64_t>(decision.node)),
         obs::arg("decision", toString(decision.mode)),
         obs::arg("path", path), obs::arg("t_local", decision.tLocal),
         obs::arg("beta", beta), obs::arg("t_remote", decision.tRemote),
         obs::arg("p99_remote", decision.p99Remote),
         obs::arg("qos", decision.qos)});
}

} // namespace
#endif // ADRIAS_OBS_ENABLED

AdriasOrchestrator::AdriasOrchestrator(const models::PredictorBase &predictor,
                                       scenario::SignatureStore &signatures_,
                                       AdriasConfig config)
    : rules(predictor, signatures_, std::move(config)),
      signatures(&signatures_)
{
}

AdriasOrchestrator::AdriasOrchestrator(models::GuardedPredictor &guard,
                                       scenario::SignatureStore &signatures_,
                                       AdriasConfig config)
    : rules(guard, signatures_, std::move(config)), signatures(&signatures_)
{
}

std::string
AdriasOrchestrator::name() const
{
    std::ostringstream out;
    out << "adrias-b" << formatDouble(rules.config().beta, 1);
    return out.str();
}

bool
AdriasOrchestrator::degraded() const
{
    return rules.guard() != nullptr && rules.guard()->degraded();
}

OrchestratorStats
AdriasOrchestrator::stats() const
{
    OrchestratorStats merged = decisionStats;
    if (const models::GuardedPredictor *guard = rules.guard()) {
        merged.breakerTrips = guard->breaker().stats().trips;
        merged.breakerRecoveries = guard->breaker().stats().recoveries;
    }
    merged.samplesRepaired = lastWatcherHealth.samplesRepaired;
    merged.samplesDropped = lastWatcherHealth.samplesDropped;
    return merged;
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
#endif
    lastWatcherHealth = {};
    // Every window is stored before any state takes its address, so
    // the borrowed pointers stay valid for the decision.
    std::vector<std::vector<ml::Matrix>> windows(nodes.size());
    std::vector<NodeState> states(nodes.size());
    for (std::size_t n = 0; n < nodes.size(); ++n) {
        const telemetry::Watcher &watcher = *nodes[n].watcher;
        const telemetry::WatcherHealth health = watcher.health();
        lastWatcherHealth.samplesAccepted += health.samplesAccepted;
        lastWatcherHealth.samplesRepaired += health.samplesRepaired;
        lastWatcherHealth.eventsRepaired += health.eventsRepaired;
        lastWatcherHealth.samplesDropped += health.samplesDropped;
        lastWatcherHealth.stalenessSec =
            std::max(lastWatcherHealth.stalenessSec, health.stalenessSec);
        lastWatcherHealth.maxStalenessSec = std::max(
            lastWatcherHealth.maxStalenessSec, health.maxStalenessSec);
        if (watcher.sampleCount() > 0)
            windows[n] = watcher.binnedWindow(
                scenario::ScenarioRunner::kWindowSec,
                scenario::ScenarioRunner::kWindowBins);
        states[n] = {&windows[n], nodes[n].running};
    }

    const DecisionRequest request{spec.name, spec.cls, states};
    const Decision decision = rules.decide({&request, 1}, now).front();
    if (decision.path == DecisionPath::Bootstrap)
        ++decisionStats.bootstrapPlacements;
    if (decision.path == DecisionPath::Fallback) {
        ++decisionStats.predictionFailures;
        ++decisionStats.fallbackPlacements;
    }
    if (decision.mode == MemoryMode::Remote)
        ++decisionStats.remotePlacements;
    else
        ++decisionStats.localPlacements;
#if ADRIAS_OBS_ENABLED
    recordPlacement(spec, now, decision, rules.config().beta);
#endif
    return {decision.node, decision.mode};
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
    captureSignature(*signatures, record);
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
