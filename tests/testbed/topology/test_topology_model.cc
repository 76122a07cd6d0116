/** @file Conformance tests for the rack Topology description. */

#include <gtest/gtest.h>

#include "testbed/testbed.hh"
#include "testbed/topology.hh"

namespace adrias::testbed
{
namespace
{

TEST(TopologyModel, PaperPairFactoryShape)
{
    const Topology topo = Topology::paperPair();
    EXPECT_EQ(topo.name(), "paper-pair");
    EXPECT_EQ(topo.nodeCount(), 1u);
    EXPECT_EQ(topo.serverCount(), 1u);
    EXPECT_EQ(topo.linkCount(), 1u);
    EXPECT_EQ(std::string(topo.link(0).profile.name), "thymesisflow");
    EXPECT_DOUBLE_EQ(topo.link(0).profile.bandwidthGBps, 0.3125);
}

TEST(TopologyModel, PaperPairDetection)
{
    // The two-node Testbed view accepts exactly the paper-pair shape —
    // one node behind one link, whatever its tier — and nothing wider.
    EXPECT_NO_THROW(Testbed{Topology::paperPair()});
    Topology cxl_pair("cxl-pair");
    cxl_pair.addNode({"n0", {}});
    cxl_pair.addServer({"s0", 256.0, 15.0, {}});
    cxl_pair.addLink(0, 0, kCxlProfile);
    cxl_pair.validate();
    EXPECT_EQ(std::string(Testbed(cxl_pair).link().name), "cxl");
    EXPECT_THROW(Testbed{Topology::symmetric(2, 2, kCxlProfile)},
                 std::runtime_error);
    EXPECT_THROW(Testbed{Topology::symmetric(1, 2, kCxlProfile)},
                 std::runtime_error);
}

TEST(TopologyModel, SymmetricFactoryShape)
{
    const Topology topo = Topology::symmetric(3, 2, kRdmaProfile, 128.0);
    EXPECT_EQ(topo.nodeCount(), 3u);
    EXPECT_EQ(topo.serverCount(), 2u);
    EXPECT_EQ(topo.linkCount(), 6u); // full bipartite
    for (std::size_t n = 0; n < 3; ++n)
        EXPECT_EQ(topo.linksFrom(n).size(), 2u);
    for (std::size_t s = 0; s < 2; ++s)
        EXPECT_DOUBLE_EQ(topo.server(s).capacityGb, 128.0);
}

TEST(TopologyModel, IndependentPairsShape)
{
    const Topology topo = Topology::independentPairs(3);
    EXPECT_EQ(topo.nodeCount(), 3u);
    EXPECT_EQ(topo.linkCount(), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
        ASSERT_EQ(topo.linksFrom(i).size(), 1u);
        EXPECT_EQ(topo.link(topo.linksFrom(i)[0]).server, i);
    }
}

TEST(TopologyModel, AutoAssignedRangesAreDisjointAndOrdered)
{
    const Topology topo = Topology::asymmetric4x4();
    std::uint64_t cursor = 0;
    for (std::size_t s = 0; s < topo.serverCount(); ++s) {
        const AddressRange &range = topo.server(s).range;
        EXPECT_GE(range.baseGb, cursor);
        cursor = range.endGb();
        for (std::size_t t = s + 1; t < topo.serverCount(); ++t) {
            if (range.sizeGb > 0 && topo.server(t).range.sizeGb > 0) {
                EXPECT_FALSE(range.overlaps(topo.server(t).range));
            }
        }
    }
}

TEST(TopologyModel, ExplicitRangeOverlapIsFatal)
{
    Topology topo("overlap");
    topo.addNode({"n0", {}});
    topo.addServer({"s0", 64.0, 15.0, {0, 64}});
    topo.addServer({"s1", 64.0, 15.0, {32, 64}});
    topo.addLink(0, 0, kCxlProfile);
    EXPECT_THROW(topo.validate(), std::runtime_error);
}

TEST(TopologyModel, DuplicateNamesAreFatal)
{
    Topology nodes_clash("dup-nodes");
    nodes_clash.addNode({"n0", {}}).addNode({"n0", {}});
    EXPECT_THROW(nodes_clash.validate(), std::runtime_error);

    Topology servers_clash("dup-servers");
    servers_clash.addNode({"n0", {}});
    servers_clash.addServer({"s0", 64.0, 15.0, {}});
    servers_clash.addServer({"s0", 64.0, 15.0, {}});
    EXPECT_THROW(servers_clash.validate(), std::runtime_error);

    Topology links_clash("dup-links");
    links_clash.addNode({"n0", {}});
    links_clash.addServer({"s0", 64.0, 15.0, {}});
    links_clash.addServer({"s1", 64.0, 15.0, {}});
    links_clash.addLink(0, 0, kCxlProfile, "same");
    links_clash.addLink(0, 1, kCxlProfile, "same");
    EXPECT_THROW(links_clash.validate(), std::runtime_error);
}

TEST(TopologyModel, DuplicateNodeServerLinkIsFatal)
{
    Topology topo("dup-endpoint");
    topo.addNode({"n0", {}});
    topo.addServer({"s0", 64.0, 15.0, {}});
    topo.addLink(0, 0, kCxlProfile, "a");
    topo.addLink(0, 0, kRdmaProfile, "b");
    EXPECT_THROW(topo.validate(), std::runtime_error);
}

TEST(TopologyModel, LinkEndpointOutOfRangeIsFatal)
{
    Topology bad_node("bad-node");
    bad_node.addNode({"n0", {}});
    bad_node.addServer({"s0", 64.0, 15.0, {}});
    bad_node.addLink(7, 0, kCxlProfile);
    EXPECT_THROW(bad_node.validate(), std::runtime_error);

    Topology bad_server("bad-server");
    bad_server.addNode({"n0", {}});
    bad_server.addServer({"s0", 64.0, 15.0, {}});
    bad_server.addLink(0, 7, kCxlProfile);
    EXPECT_THROW(bad_server.validate(), std::runtime_error);
}

TEST(TopologyModel, InvalidServerParametersAreFatal)
{
    Topology negative_capacity("neg-cap");
    negative_capacity.addNode({"n0", {}});
    negative_capacity.addServer({"s0", -1.0, 15.0, {}});
    EXPECT_THROW(negative_capacity.validate(), std::runtime_error);

    Topology zero_bandwidth("zero-bw");
    zero_bandwidth.addNode({"n0", {}});
    zero_bandwidth.addServer({"s0", 64.0, 0.0, {}});
    EXPECT_THROW(zero_bandwidth.validate(), std::runtime_error);
}

TEST(TopologyModel, NoNodesIsFatal)
{
    Topology topo("empty");
    EXPECT_THROW(topo.validate(), std::runtime_error);
}

TEST(TopologyModel, DefaultLinkNamesComposeEndpointNames)
{
    const Topology topo = Topology::symmetric(2, 2, kCxlProfile);
    EXPECT_EQ(topo.link(0).name, "n0-s0");
    EXPECT_EQ(topo.link(3).name, "n1-s1");
}

TEST(TopologyModel, LinkAdjacencyBeforeValidateIsFatal)
{
    Topology topo("unvalidated");
    topo.addNode({"n0", {}});
    topo.addServer({"s0", 64.0, 15.0, {}});
    topo.addLink(0, 0, kCxlProfile);
    EXPECT_THROW(topo.linksFrom(0), std::runtime_error);
}

TEST(TopologyModel, Asymmetric4x4Shape)
{
    const Topology topo = Topology::asymmetric4x4();
    EXPECT_EQ(topo.nodeCount(), 4u);
    EXPECT_EQ(topo.serverCount(), 4u);
    EXPECT_EQ(topo.linkCount(), 9u);
    // The drained server stays reachable but lends nothing.
    EXPECT_DOUBLE_EQ(topo.server(3).capacityGb, 0.0);
    EXPECT_EQ(topo.server(3).range.sizeGb, 0u);
    bool reachable = false;
    for (std::size_t l = 0; l < topo.linkCount(); ++l)
        reachable = reachable || topo.link(l).server == 3;
    EXPECT_TRUE(reachable);
    // n0 sees every server; n3 has exactly one RDMA path.
    EXPECT_EQ(topo.linksFrom(0).size(), 4u);
    ASSERT_EQ(topo.linksFrom(3).size(), 1u);
    EXPECT_EQ(std::string(topo.link(topo.linksFrom(3)[0]).profile.name),
              "rdma");
}

TEST(TopologyModel, TopologyByNameRegistry)
{
    const Topology paper = topologyByName("paper-pair");
    EXPECT_EQ(paper.name(), "paper-pair");
    EXPECT_EQ(paper.linkCount(), 1u);
    EXPECT_EQ(topologyByName("rack-2x2-cxl").linkCount(), 4u);
    EXPECT_EQ(topologyByName("rack-4x4-mixed").linkCount(), 9u);
    EXPECT_EQ(topologyByName("pairs-5").nodeCount(), 5u);
    EXPECT_THROW(topologyByName("no-such-rack"), std::runtime_error);
    EXPECT_THROW(topologyByName("pairs-"), std::runtime_error);
    EXPECT_THROW(topologyByName("pairs-0"), std::runtime_error);
    EXPECT_THROW(topologyByName("pairs--3"), std::runtime_error);
    EXPECT_THROW(topologyByName("pairs-3x"), std::runtime_error);
    // A count beyond size_t is bad input (runtime_error), not a
    // programming error (std::out_of_range is a logic_error).
    EXPECT_THROW(topologyByName("pairs-99999999999999999999"),
                 std::runtime_error);
}

TEST(TopologyModel, AddressRangePrimitives)
{
    const AddressRange a{0, 64};
    const AddressRange b{64, 64};
    EXPECT_FALSE(a.overlaps(b));
    EXPECT_TRUE(a.overlaps(AddressRange{63, 2}));
    EXPECT_EQ(b.endGb(), 128u);
}

} // namespace
} // namespace adrias::testbed
