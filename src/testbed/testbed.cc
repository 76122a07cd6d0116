#include "testbed/testbed.hh"

#include <string>
#include <utility>

#include "common/logging.hh"

namespace adrias::testbed
{

namespace
{

/** Reject topologies that are not one node behind one channel. */
Topology
singleChannel(Topology topo)
{
    if (topo.nodeCount() != 1 || topo.linkCount() != 1)
        fatal("Testbed: topology '" + topo.name() + "' has " +
              std::to_string(topo.nodeCount()) + " compute nodes and " +
              std::to_string(topo.linkCount()) +
              " links; the two-node testbed needs exactly one of each "
              "(drive multi-node racks through ClusterScenarioRunner)");
    return topo;
}

} // namespace

Testbed::Testbed(TestbedParams params, std::uint64_t seed)
    : Testbed(Topology::paperPair(params), seed)
{
}

Testbed::Testbed(Topology topo, std::uint64_t seed)
    : rack(singleChannel(std::move(topo)), seed)
{
}

TickResult
singleChannelView(const RackTickResult &resolved)
{
    TickResult result;
    result.outcomes = resolved.outcomes;
    result.counters = resolved.nodes[0].counters;
    result.remoteTrafficGBps = resolved.nodes[0].remoteTrafficGBps;
    result.localTrafficGBps = resolved.nodes[0].localTrafficGBps;
    result.channelPressure = resolved.links[0].pressure;
    result.channelLatencyCycles = resolved.links[0].latencyCycles;
    return result;
}

TickResult
Testbed::tick(const std::vector<LoadDescriptor> &loads)
{
    return singleChannelView(rack.tick(loads));
}

} // namespace adrias::testbed
