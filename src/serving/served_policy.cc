#include "serving/served_policy.hh"

#include "common/logging.hh"
#include "scenario/runner.hh"

namespace adrias::serving
{

ServedPlacementPolicy::ServedPlacementPolicy(
    DecisionService &service_, scenario::SignatureStore &signatures_,
    ServedPolicyConfig config_)
    : service(&service_), signatures(&signatures_), knobs(config_)
{
    if (knobs.deadlineTicks <= 0)
        fatal("ServedPlacementPolicy: deadlineTicks must be positive");
    if (knobs.epochTicks <= 0)
        fatal("ServedPlacementPolicy: epochTicks must be positive");
}

void
ServedPlacementPolicy::refreshEpoch(const telemetry::Watcher &watcher,
                                    SimTime now)
{
    if (epochStarted && now < nextEpochAt)
        return;
    // The runner drives a single system-wide watcher; replicate its
    // binned window across every shard so a request lands on the same
    // view no matter which shard routed it.  A cold watcher maps to
    // cold shards (empty windows).
    EpochSnapshot snapshot;
    snapshot.takenAt = now;
    std::vector<ml::Matrix> window;
    if (watcher.sampleCount() > 0)
        window = watcher.binnedWindow(scenario::ScenarioRunner::kWindowSec,
                                      scenario::ScenarioRunner::kWindowBins);
    snapshot.shardWindows.assign(service->config().shards, window);
    service->beginEpoch(std::move(snapshot));
    epochStarted = true;
    nextEpochAt = now + knobs.epochTicks;
}

scenario::ClusterPlacement
ServedPlacementPolicy::place(const workloads::WorkloadSpec &spec,
                             const std::vector<scenario::NodeView> &nodes,
                             SimTime now)
{
    if (nodes.size() != 1)
        fatal("ServedPlacementPolicy: the daemon places on one node, but "
              "the rack has " +
              std::to_string(nodes.size()));
    refreshEpoch(*nodes.front().watcher, now);

    PlacementRequest request;
    request.id = nextId++;
    request.app = spec.name;
    request.cls = spec.cls;
    request.shard = service->shardFor(request.id);
    request.submitted = now;
    request.deadline = now + knobs.deadlineTicks;
    if (!service->submit(request))
        panic("ServedPlacementPolicy: shard queue full in synchronous "
              "mode");

    // Synchronous façade: the scenario runner needs the mode this
    // tick, so force the batch through rather than waiting for fill.
    const std::vector<PlacementDecision> decisions = service->drain(now);
    for (const PlacementDecision &decision : decisions) {
        if (decision.id == request.id)
            return {0, decision.mode};
    }
    panic("ServedPlacementPolicy: drained without our decision");
}

void
ServedPlacementPolicy::onCompletion(
    std::size_t, const scenario::DeploymentRecord &record)
{
    core::captureSignature(*signatures, record);
}

} // namespace adrias::serving
