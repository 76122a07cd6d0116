#include "testbed/topology.hh"

#include <cmath>
#include <set>
#include <string_view>
#include <utility>

#include "common/error.hh"
#include "common/logging.hh"

namespace adrias::testbed
{

namespace
{

/** prefix then index ("n3").  Appended, not `"n" + std::to_string(i)`:
 *  GCC 12 cannot bound that form's insert and warns -Wrestrict. */
std::string
indexedName(const char *prefix, std::size_t index)
{
    std::string name = prefix;
    name += std::to_string(index);
    return name;
}

} // namespace

Topology::Topology(std::string name) : topologyName(std::move(name)) {}

Topology &
Topology::addNode(ComputeNodeDesc node)
{
    validated = false;
    nodes.push_back(std::move(node));
    return *this;
}

Topology &
Topology::addServer(MemoryServerDesc server)
{
    validated = false;
    if (server.range.sizeGb == 0) {
        server.range.baseGb = nextRangeBaseGb;
        server.range.sizeGb =
            static_cast<std::uint64_t>(std::ceil(server.capacityGb));
    }
    if (server.range.endGb() > nextRangeBaseGb)
        nextRangeBaseGb = server.range.endGb();
    servers.push_back(std::move(server));
    return *this;
}

Topology &
Topology::addLink(std::size_t node, std::size_t server,
                  const LinkProfile &profile, std::string name)
{
    validated = false;
    LinkDesc link;
    link.node = node;
    link.server = server;
    link.profile = profile;
    if (name.empty()) {
        const std::string nodeName =
            node < nodes.size() ? nodes[node].name : std::to_string(node);
        const std::string serverName = server < servers.size()
                                           ? servers[server].name
                                           : std::to_string(server);
        name = nodeName + "-" + serverName;
    }
    link.name = std::move(name);
    links.push_back(std::move(link));
    return *this;
}

Topology &
Topology::validate()
{
    if (validated)
        return *this; // every mutator clears the flag
    if (nodes.empty())
        fatal("Topology '" + topologyName + "': no compute nodes");

    std::set<std::string> names;
    for (const ComputeNodeDesc &node : nodes)
        if (!names.insert("n:" + node.name).second)
            fatal("Topology '" + topologyName + "': duplicate node name '" +
                  node.name + "'");
    for (const MemoryServerDesc &server : servers) {
        if (!names.insert("s:" + server.name).second)
            fatal("Topology '" + topologyName +
                  "': duplicate server name '" + server.name + "'");
        if (server.capacityGb < 0.0)
            fatal("Topology '" + topologyName + "': server '" + server.name +
                  "' has negative capacity");
        if (server.bandwidthGBps <= 0.0)
            fatal("Topology '" + topologyName + "': server '" + server.name +
                  "' has non-positive bandwidth");
    }
    for (std::size_t i = 0; i < servers.size(); ++i)
        for (std::size_t j = i + 1; j < servers.size(); ++j)
            if (servers[i].range.sizeGb > 0 && servers[j].range.sizeGb > 0 &&
                servers[i].range.overlaps(servers[j].range))
                fatal("Topology '" + topologyName +
                      "': overlapping address ranges between '" +
                      servers[i].name + "' and '" + servers[j].name + "'");

    std::set<std::pair<std::size_t, std::size_t>> endpoints;
    for (const LinkDesc &link : links) {
        if (!names.insert("l:" + link.name).second)
            fatal("Topology '" + topologyName + "': duplicate link name '" +
                  link.name + "'");
        if (link.node >= nodes.size())
            fatal("Topology '" + topologyName + "': link '" + link.name +
                  "' references unknown node index");
        if (link.server >= servers.size())
            fatal("Topology '" + topologyName + "': link '" + link.name +
                  "' references unknown server index");
        if (!endpoints.insert({link.node, link.server}).second)
            fatal("Topology '" + topologyName + "': duplicate link between '" +
                  nodes[link.node].name + "' and '" +
                  servers[link.server].name + "'");
    }

    nodeLinks.assign(nodes.size(), {});
    for (std::size_t i = 0; i < links.size(); ++i)
        nodeLinks[links[i].node].push_back(i);

    validated = true;
    return *this;
}

void
Topology::requireValidated(const char *what) const
{
    if (!validated)
        fatal(std::string("Topology '") + topologyName + "': " + what +
              " called before validate()");
}

void
Topology::outOfRange(const char *what) const
{
    fatal("Topology '" + topologyName + "': " + what +
          " index out of range");
}

const std::vector<std::size_t> &
Topology::linksFrom(std::size_t node) const
{
    requireValidated("linksFrom");
    if (node >= nodeLinks.size())
        fatal("Topology '" + topologyName + "': linksFrom out of range");
    return nodeLinks[node];
}

Topology
Topology::paperPair(TestbedParams params)
{
    Topology topo("paper-pair");
    topo.addNode({"n0", params});
    topo.addServer({"s0", 256.0, params.localBwGBps, {}});
    topo.addLink(0, 0, kThymesisFlowProfile);
    topo.validate();
    return topo;
}

Topology
Topology::symmetric(std::size_t nodeCount, std::size_t serverCount,
                    const LinkProfile &profile, double server_capacity_gb,
                    TestbedParams node_params)
{
    std::string name = indexedName("rack-", nodeCount);
    name += indexedName("x", serverCount);
    name += '-';
    name += profile.name;
    Topology topo(std::move(name));
    for (std::size_t n = 0; n < nodeCount; ++n)
        topo.addNode({indexedName("n", n), node_params});
    for (std::size_t s = 0; s < serverCount; ++s)
        topo.addServer({indexedName("s", s), server_capacity_gb,
                        node_params.localBwGBps, {}});
    for (std::size_t n = 0; n < nodeCount; ++n)
        for (std::size_t s = 0; s < serverCount; ++s)
            topo.addLink(n, s, profile);
    topo.validate();
    return topo;
}

Topology
Topology::independentPairs(std::size_t pairs, TestbedParams params)
{
    Topology topo(indexedName("pairs-", pairs));
    for (std::size_t i = 0; i < pairs; ++i) {
        topo.addNode({indexedName("n", i), params});
        topo.addServer({indexedName("s", i), 256.0, params.localBwGBps, {}});
        topo.addLink(i, i, kThymesisFlowProfile);
    }
    topo.validate();
    return topo;
}

Topology
Topology::asymmetric4x4()
{
    Topology topo("rack-4x4-mixed");
    TestbedParams params;
    for (std::size_t n = 0; n < 4; ++n)
        topo.addNode({indexedName("n", n), params});
    topo.addServer({"s0", 512.0, 18.0, {}});
    topo.addServer({"s1", 256.0, 15.0, {}});
    topo.addServer({"s2", 64.0, 12.0, {}});
    topo.addServer({"s3", 0.0, 10.0, {}}); // drained server, kept reachable
    // n0 reaches every server over mixed tiers; n1/n2 see two servers
    // each; n3 has a single RDMA path.
    topo.addLink(0, 0, kCxlProfile);
    topo.addLink(0, 1, kThymesisFlowProfile);
    topo.addLink(0, 2, kRdmaProfile);
    topo.addLink(0, 3, kRdmaProfile);
    topo.addLink(1, 0, kThymesisFlowProfile);
    topo.addLink(1, 1, kCxlProfile);
    topo.addLink(2, 1, kRdmaProfile);
    topo.addLink(2, 2, kCxlProfile);
    topo.addLink(3, 2, kRdmaProfile);
    topo.validate();
    return topo;
}

Topology
topologyByName(const std::string &name)
{
    if (name == "paper-pair")
        return Topology::paperPair();
    if (name == "rack-2x2-cxl")
        return Topology::symmetric(2, 2, kCxlProfile);
    if (name == "rack-4x4-mixed")
        return Topology::asymmetric4x4();
    const std::string pairsPrefix = "pairs-";
    if (name.rfind(pairsPrefix, 0) == 0) {
        // A count that is malformed or out of range is an unknown name
        // like any other, not a programming error.
        const Result<std::size_t> pairs =
            parseSize(std::string_view(name).substr(pairsPrefix.size()));
        if (pairs && pairs.value() > 0)
            return Topology::independentPairs(pairs.value());
    }
    fatal("topologyByName: unknown topology '" + name + "'");
}

} // namespace adrias::testbed
