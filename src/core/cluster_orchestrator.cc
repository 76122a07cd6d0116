#include "core/cluster_orchestrator.hh"

#include <algorithm>
#include <limits>
#include <sstream>

#include "common/logging.hh"
#include "common/table.hh"
#include "scenario/runner.hh"

namespace adrias::core
{

AdriasClusterOrchestrator::AdriasClusterOrchestrator(
    const models::PredictorBase &predictor_,
    scenario::SignatureStore &signatures_, AdriasConfig config_)
    : predictor(&predictor_), signatures(&signatures_), policy(config_)
{
    if (policy.beta <= 0.0 || policy.beta > 1.5)
        fatal("AdriasClusterOrchestrator: beta out of sensible range");
    if (!predictor->trained())
        fatal("AdriasClusterOrchestrator requires a trained Predictor");
}

std::string
AdriasClusterOrchestrator::name() const
{
    std::ostringstream out;
    out << "adrias-cluster-b" << formatDouble(policy.beta, 1);
    return out.str();
}

std::vector<AdriasClusterOrchestrator::Candidate>
AdriasClusterOrchestrator::predictAll(
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
    if (queries.empty())
        return candidates;

    // One fused query per decision: the shared signature is encoded
    // once and each node's window once, whatever the node count.
    const std::vector<double> predicted =
        predictor->predictPerformanceBatch(spec.cls, queries);
    for (std::size_t i = 0; i < candidates.size(); ++i)
        candidates[i].predicted = predicted[i];
    return candidates;
}

scenario::ClusterPlacement
AdriasClusterOrchestrator::place(
    const workloads::WorkloadSpec &spec,
    const std::vector<scenario::NodeView> &nodes, SimTime now)
{
    (void)now;
    if (nodes.empty())
        fatal("AdriasClusterOrchestrator: empty cluster");

    // Least-loaded node, used for bootstraps, cold starts and as the
    // iso-QoS tie-break (cluster-level efficiency, §VII).
    auto least_loaded = [&nodes]() {
        std::size_t best = 0;
        for (std::size_t n = 1; n < nodes.size(); ++n)
            if (nodes[n].running < nodes[best].running)
                best = n;
        return best;
    };

    // Unknown application: bootstrap on remote memory on the least
    // loaded node, mirroring the single-node rule.
    if (!signatures->has(spec.name))
        return {least_loaded(), MemoryMode::Remote};

    const auto candidates = predictAll(spec, nodes);
    if (candidates.empty())
        return {least_loaded(), MemoryMode::Local};

    if (spec.cls == WorkloadClass::BestEffort) {
        // Per node, apply the β rule; across nodes, prefer the best
        // predicted time, breaking near-ties by load.
        scenario::ClusterPlacement best{0, MemoryMode::Local};
        double best_time = std::numeric_limits<double>::infinity();
        std::size_t best_running = SIZE_MAX;
        for (std::size_t i = 0; i < candidates.size(); i += 2) {
            const Candidate &local = candidates[i];
            const Candidate &remote = candidates[i + 1];
            const bool go_local =
                AdriasOrchestrator::decideBestEffort(
                    local.predicted, remote.predicted, policy.beta) ==
                MemoryMode::Local;
            const Candidate &chosen = go_local ? local : remote;
            const bool better =
                chosen.predicted < best_time * (1.0 - kIsoMargin);
            const bool iso_tie =
                chosen.predicted <= best_time * (1.0 + kIsoMargin) &&
                chosen.running < best_running;
            if (better || iso_tie) {
                best_time = chosen.predicted;
                best_running = chosen.running;
                best = {chosen.node, chosen.mode};
            }
        }
        return best;
    }

    if (spec.cls == WorkloadClass::LatencyCritical) {
        const double qos = [&] {
            auto it = policy.qosP99Ms.find(spec.name);
            return it == policy.qosP99Ms.end() ? policy.defaultQosP99Ms
                                               : it->second;
        }();
        // Prefer a remote placement that meets QoS (most headroom,
        // least-loaded on iso-QoS); otherwise the safest local one.
        const Candidate *best_remote = nullptr;
        const Candidate *best_local = nullptr;
        for (const Candidate &candidate : candidates) {
            if (candidate.mode == MemoryMode::Remote) {
                // Same boundary as the shared LC rule: a remote
                // candidate is admissible iff p̂99 ≤ QoS.
                if (AdriasOrchestrator::decideLatencyCritical(
                        candidate.predicted, qos) != MemoryMode::Remote)
                    continue;
                if (!best_remote ||
                    candidate.predicted <
                        best_remote->predicted * (1.0 - kIsoMargin) ||
                    (candidate.predicted <=
                         best_remote->predicted * (1.0 + kIsoMargin) &&
                     candidate.running < best_remote->running)) {
                    best_remote = &candidate;
                }
            } else if (!best_local ||
                       candidate.predicted < best_local->predicted) {
                best_local = &candidate;
            }
        }
        if (best_remote)
            return {best_remote->node, MemoryMode::Remote};
        if (best_local)
            return {best_local->node, MemoryMode::Local};
        return {least_loaded(), MemoryMode::Local};
    }

    panic("AdriasClusterOrchestrator asked to place a trasher");
}

scenario::ClusterPlacement
AdriasClusterOrchestrator::placeRack(
    const workloads::WorkloadSpec &spec,
    const std::vector<scenario::NodeView> &nodes,
    const scenario::RackView &rack, SimTime now)
{
    const scenario::ClusterPlacement chosen = place(spec, nodes, now);
    if (chosen.mode != MemoryMode::Remote)
        return chosen;
    scenario::ClusterPlacement routed = routeOnRack(chosen, spec, rack);
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
        alt = routeOnRack(alt, spec, rack);
        if (alt.mode == MemoryMode::Remote)
            return alt;
    }
    return routed;
}

void
AdriasClusterOrchestrator::onCompletion(
    std::size_t node, const scenario::DeploymentRecord &record)
{
    (void)node;
    if (record.cls == WorkloadClass::Interference)
        return;
    if (!signatures->has(record.name) && !record.executionWindow.empty())
        signatures->put(record.name, record.executionWindow);
}

} // namespace adrias::core
