#include "scenario/cluster.hh"

#include "common/logging.hh"
#include "scenario/engine.hh"

namespace adrias::scenario
{

using workloads::WorkloadSpec;

std::vector<ClusterResult::NodeRecord>
ClusterResult::allRecords() const
{
    std::vector<NodeRecord> all;
    for (std::size_t n = 0; n < nodes.size(); ++n)
        for (const DeploymentRecord &record : nodes[n].records)
            all.push_back({n, &record});
    return all;
}

ClusterPlacement
routeOnRack(ClusterPlacement placement, const WorkloadSpec &spec,
            const RackView &rack)
{
    if (placement.mode != MemoryMode::Remote)
        return placement;
    if (rack.topology == nullptr)
        panic("routeOnRack: RackView carries no topology");
    const testbed::Topology &topo = *rack.topology;
    std::int64_t best_link = -1;
    double best_avail = -1.0;
    for (std::size_t l : topo.linksFrom(placement.node)) {
        if (!rack.links[l].healthy())
            continue;
        const std::size_t s = topo.link(l).server;
        const double avail = rack.servers[s].availableGb;
        if (avail < spec.memoryFootprintGb)
            continue;
        // linksFrom is ascending, so a strict improvement test breaks
        // availability ties toward the lowest link index.
        if (avail > best_avail) {
            best_avail = avail;
            best_link = static_cast<std::int64_t>(l);
        }
    }
    if (best_link < 0) {
        // No healthy link reaches a server with room: degrade to the
        // node's local pool rather than refuse the deployment.
        placement.mode = MemoryMode::Local;
        placement.server = 0;
        placement.link = 0;
        return placement;
    }
    placement.link = static_cast<std::size_t>(best_link);
    placement.server = topo.link(placement.link).server;
    return placement;
}

ClusterScenarioRunner::ClusterScenarioRunner(testbed::Topology topology,
                                             ScenarioConfig config_)
    : topo(std::move(topology)), config(std::move(config_))
{
    validateScenarioConfig(config);
}

ClusterResult
ClusterScenarioRunner::run(ClusterPolicy &policy)
{
    ScenarioEngine engine(topo, config);
    while (!engine.finished())
        engine.stepTick(policy);
    return engine.finishCluster();
}

} // namespace adrias::scenario
