/**
 * @file
 * Rack-scale topology description: M compute nodes sharing N memory
 * servers over heterogeneous links.
 *
 * The paper's prototype is a single borrower/lender pair; a rack
 * generalizes it to a bipartite graph.  Each memory server owns a
 * contiguous slice of the rack's global remote address space (the
 * owned-address-range scheme of disaggregated memory controllers) and
 * exposes an allocatable capacity; each link connects one compute node
 * to one memory server with a named latency/bandwidth tier
 * (link_profiles.hh).  The paper's two-node testbed is the registered
 * "paper-pair" topology: one node, one server, one ThymesisFlow link
 * (DESIGN.md §14).
 */

#ifndef ADRIAS_TESTBED_TOPOLOGY_HH
#define ADRIAS_TESTBED_TOPOLOGY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "testbed/link_profiles.hh"
#include "testbed/params.hh"

namespace adrias::testbed
{

/** A contiguous slice of the rack's remote address space, GiB units. */
struct AddressRange
{
    /** First GiB owned by the server. */
    std::uint64_t baseGb = 0;

    /** Number of GiB owned (may be 0 for a drained server). */
    std::uint64_t sizeGb = 0;

    /** One past the last owned GiB. */
    std::uint64_t endGb() const { return baseGb + sizeGb; }

    /** @return true when the two ranges share at least one GiB. */
    bool
    overlaps(const AddressRange &other) const
    {
        return baseGb < other.endGb() && other.baseGb < endGb();
    }
};

/** One memory server (lender) of the rack. */
struct MemoryServerDesc
{
    /** Unique name, e.g. "s0". */
    std::string name;

    /** Allocatable capacity, GB (0 models a drained/dead server). */
    double capacityGb = 256.0;

    /** DRAM bandwidth at the server's controllers, GB/s. */
    double bandwidthGBps = 15.0;

    /** Owned slice of the rack's remote address space. */
    AddressRange range{};
};

/** One compute node (borrower) of the rack. */
struct ComputeNodeDesc
{
    /** Unique name, e.g. "n0". */
    std::string name;

    /** Node-local calibration (cores, LLC, local DRAM); links carry
     *  their own profile. */
    TestbedParams local{};
};

/** One directed compute-node → memory-server link. */
struct LinkDesc
{
    /** Unique name, e.g. "n0-s1" (fault schedules target this). */
    std::string name;

    /** Index of the compute node endpoint. */
    std::size_t node = 0;

    /** Index of the memory server endpoint. */
    std::size_t server = 0;

    /** Latency/bandwidth tier of this link. */
    LinkProfile profile = kThymesisFlowProfile;
};

/**
 * An immutable-after-validation rack description.
 *
 * Build with the fluent add* API (or a named factory), then call
 * validate() once; the simulation layers treat a validated Topology as
 * configuration and never mutate it.
 */
class Topology
{
  public:
    /** Human-readable topology name ("paper-pair", "rack-4x4", ...). */
    explicit Topology(std::string name = "custom");

    /** Append a compute node. @return *this for chaining. */
    Topology &addNode(ComputeNodeDesc node);

    /**
     * Append a memory server.  When `server.range.sizeGb` is zero the
     * owned range is auto-assigned: capacityGb (rounded up) GiB starting
     * right after the highest range assigned so far.
     */
    Topology &addServer(MemoryServerDesc server);

    /**
     * Append a link.  An empty name defaults to "<node>-<server>"
     * built from the endpoint names.
     */
    Topology &addLink(std::size_t node, std::size_t server,
                      const LinkProfile &profile, std::string name = "");

    /**
     * Check structural consistency: at least one node, unique names,
     * link endpoints in range, no duplicate (node, server) links, no
     * overlapping owned address ranges, non-negative capacities.
     * Fatal on violation; returns *this so factories can chain it.
     * Validating an already validated topology returns at once.
     */
    Topology &validate();

    const std::string &name() const { return topologyName; }

    std::size_t nodeCount() const { return nodes.size(); }
    std::size_t serverCount() const { return servers.size(); }
    std::size_t linkCount() const { return links.size(); }

    // Inline: the contention resolver calls these per deployment.
    const ComputeNodeDesc &
    node(std::size_t i) const
    {
        if (i >= nodes.size())
            outOfRange("node");
        return nodes[i];
    }

    const MemoryServerDesc &
    server(std::size_t i) const
    {
        if (i >= servers.size())
            outOfRange("server");
        return servers[i];
    }

    const LinkDesc &
    link(std::size_t i) const
    {
        if (i >= links.size())
            outOfRange("link");
        return links[i];
    }

    /** Indices of the links leaving one compute node, ascending. */
    const std::vector<std::size_t> &linksFrom(std::size_t node) const;

    // --- named factories ----------------------------------------------

    /** The paper's testbed: 1 node, 1 server, 1 ThymesisFlow link. */
    static Topology paperPair(TestbedParams params = {});

    /**
     * Full bipartite M×N rack: every node linked to every server with
     * the same profile; servers sized uniformly.
     */
    static Topology symmetric(std::size_t nodes, std::size_t servers,
                              const LinkProfile &profile,
                              double server_capacity_gb = 256.0,
                              TestbedParams node_params = {});

    /**
     * N independent paper pairs (the N-node cluster of paper §VII):
     * node i is linked only to server i over a ThymesisFlow link.
     */
    static Topology independentPairs(std::size_t pairs,
                                     TestbedParams params = {});

    /**
     * The 4×4 asymmetric conformance topology: four nodes, four servers
     * of decreasing capacity (including one drained 0 GB server), and a
     * mixed CXL/RDMA/ThymesisFlow link set with one node connected to
     * every server and one node connected to a single server.
     */
    static Topology asymmetric4x4();

  private:
    std::string topologyName;
    std::vector<ComputeNodeDesc> nodes;
    std::vector<MemoryServerDesc> servers;
    std::vector<LinkDesc> links;

    /** Per-node link indices, rebuilt by validate(). */
    std::vector<std::vector<std::size_t>> nodeLinks;

    /** Next auto-assigned address-range base, GiB. */
    std::uint64_t nextRangeBaseGb = 0;

    bool validated = false;

    void requireValidated(const char *what) const;

    /** Fatal on an out-of-range element index. */
    [[noreturn]] void outOfRange(const char *what) const;
};

/**
 * Resolve a registered topology by name: "paper-pair",
 * "rack-2x2-cxl" (2×2, all-CXL), "rack-4x4-mixed" (the asymmetric
 * conformance rack) or "pairs-<n>" (n >= 1 independent paper pairs).
 * Every scenario resolves its machine through this function.
 *
 * @throws std::runtime_error on an unknown name (including a pairs
 *         count that is malformed, zero or out of range).
 */
Topology topologyByName(const std::string &name);

} // namespace adrias::testbed

#endif // ADRIAS_TESTBED_TOPOLOGY_HH
