/**
 * @file
 * Multi-node cluster simulation — the paper's §VII scalability design:
 * the Watcher and Predictor are per-node, while the orchestration
 * logic is centralized and must pick a node *and* a memory mode for
 * each arriving application, accounting for cluster-level efficiency
 * on iso-QoS predictions.
 *
 * The cluster is a rack: one RackTestbed shared by all nodes, where a
 * remote placement is a (node, server, link) triple, servers account
 * allocated capacity, and per-link fault injection targets links by
 * name.  K independent ThymesisFlow borrower/lender pairs with no
 * cross-node lending are the "pairs-K" topology
 * (Topology::independentPairs).
 */

#ifndef ADRIAS_SCENARIO_CLUSTER_HH
#define ADRIAS_SCENARIO_CLUSTER_HH

#include <memory>
#include <vector>

#include "scenario/placement.hh"
#include "scenario/runner.hh"
#include "testbed/rack.hh"
#include "testbed/topology.hh"

namespace adrias::scenario
{

/**
 * A placement decision: a node and a memory mode; a Remote decision
 * also names the memory server lending the range and the link carrying
 * the traffic.
 */
struct ClusterPlacement
{
    std::size_t node = 0;
    MemoryMode mode = MemoryMode::Local;

    /** Lending memory server (mode == Remote). */
    std::size_t server = 0;

    /** Link carrying the remote traffic (mode == Remote). */
    std::size_t link = 0;
};

/** What a cluster policy may inspect about one node. */
struct NodeView
{
    /** The node's live telemetry. */
    const telemetry::Watcher *watcher = nullptr;

    /** Number of deployments currently running on the node. */
    std::size_t running = 0;
};

/** What a cluster policy may inspect about one memory server. */
struct ServerView
{
    /** Allocatable capacity, GB. */
    double capacityGb = 0.0;

    /** Capacity still unallocated, GB. */
    double availableGb = 0.0;
};

/** What a cluster policy may inspect about one link. */
struct LinkView
{
    /** Endpoints (indices into the topology). */
    std::size_t node = 0;
    std::size_t server = 0;

    /** Fault derating currently applied (1 / 1 = healthy). */
    double bwScale = 1.0;
    double latencyScale = 1.0;

    /** @return true when the link can carry meaningful traffic. */
    bool healthy() const { return bwScale > 0.05; }
};

/** Live rack state offered to placeRack decisions. */
struct RackView
{
    /** The rack description (never null inside placeRack). */
    const testbed::Topology *topology = nullptr;

    /** Per-server state, indexed like topology servers. */
    std::vector<ServerView> servers;

    /** Per-link state, indexed like topology links. */
    std::vector<LinkView> links;
};

/**
 * Route a (node, mode) decision onto a rack: among the healthy links
 * leaving `placement.node`, pick the server with the most available
 * capacity that can still fit the app's footprint (ties broken by
 * lowest link index).  A Remote decision with no viable route falls
 * back to Local — the surviving-servers degradation path when links
 * die or servers drain.
 */
ClusterPlacement routeOnRack(ClusterPlacement placement,
                             const workloads::WorkloadSpec &spec,
                             const RackView &rack);

/** Chooses node and memory mode for arriving applications. */
class ClusterPolicy
{
  public:
    virtual ~ClusterPolicy() = default;

    /** Short name for bench tables. */
    virtual std::string name() const = 0;

    /**
     * Decide placement for an arriving application.
     *
     * @param spec the application.
     * @param nodes one view per node, index == node id.
     * @param now arrival time.
     */
    virtual ClusterPlacement place(const workloads::WorkloadSpec &spec,
                                   const std::vector<NodeView> &nodes,
                                   SimTime now) = 0;

    /**
     * Rack-aware placement.  The default derives (node, mode) from
     * place() and routes Remote decisions with routeOnRack(); policies
     * that reason about servers/links directly override this.
     */
    virtual ClusterPlacement
    placeRack(const workloads::WorkloadSpec &spec,
              const std::vector<NodeView> &nodes, const RackView &rack,
              SimTime now)
    {
        return routeOnRack(place(spec, nodes, now), spec, rack);
    }

    /** Completion callback with the owning node. */
    virtual void
    onCompletion(std::size_t node, const DeploymentRecord &record)
    {
        (void)node;
        (void)record;
    }
};

/** Uniformly random node and mode. */
class RandomClusterPolicy : public ClusterPolicy
{
  public:
    explicit RandomClusterPolicy(std::uint64_t seed = 7) : rng(seed) {}

    std::string name() const override { return "random"; }

    ClusterPlacement
    place(const workloads::WorkloadSpec &,
          const std::vector<NodeView> &nodes, SimTime) override
    {
        ClusterPlacement placement;
        placement.node = static_cast<std::size_t>(rng.uniformInt(
            0, static_cast<std::int64_t>(nodes.size()) - 1));
        placement.mode = rng.bernoulli(0.5) ? MemoryMode::Remote
                                            : MemoryMode::Local;
        return placement;
    }

  private:
    Rng rng;
};

/** Node chosen by fewest running apps, always local memory. */
class LeastLoadedLocalPolicy : public ClusterPolicy
{
  public:
    std::string name() const override { return "least-loaded-local"; }

    ClusterPlacement
    place(const workloads::WorkloadSpec &,
          const std::vector<NodeView> &nodes, SimTime) override
    {
        ClusterPlacement placement;
        placement.mode = MemoryMode::Local;
        std::size_t best = SIZE_MAX;
        for (std::size_t n = 0; n < nodes.size(); ++n) {
            if (nodes[n].running < best) {
                best = nodes[n].running;
                placement.node = n;
            }
        }
        return placement;
    }
};

/** One completed cluster scenario. */
struct ClusterResult
{
    /** Per-node scenario results (trace, concurrency, records). */
    std::vector<ScenarioResult> nodes;

    /** Total channel traffic across all nodes, GB. */
    double totalRemoteTrafficGB = 0.0;

    /** Rack the scenario ran on. */
    std::string topologyName;

    /** Per-link cumulative byte accounting, indexed like links. */
    std::vector<testbed::LinkTotals> linkTotals;

    /** Arrivals dropped because no node could admit them. */
    std::size_t droppedArrivals = 0;

    /** Remote placements demoted to Local by capacity/link pressure. */
    std::size_t remoteFallbacks = 0;

    /** All completion records across nodes (node id attached). */
    struct NodeRecord
    {
        std::size_t node;
        const DeploymentRecord *record;
    };
    std::vector<NodeRecord> allRecords() const;
};

/**
 * Drives one arrival stream across a cluster of simulated nodes: a
 * ScenarioEngine on the topology, stepped to the end.
 */
class ClusterScenarioRunner
{
  public:
    /**
     * One shared RackTestbed over a validated topology.  Remote
     * placements allocate the app's footprint on the lending server for
     * its lifetime; fault windows naming a link derate that link only.
     * The config is checked with validateScenarioConfig.
     */
    ClusterScenarioRunner(testbed::Topology topology,
                          ScenarioConfig config);

    /** Execute the scenario under the given cluster policy. */
    ClusterResult run(ClusterPolicy &policy);

  private:
    testbed::Topology topo;
    ScenarioConfig config;
};

} // namespace adrias::scenario

#endif // ADRIAS_SCENARIO_CLUSTER_HH
