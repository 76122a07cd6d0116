/**
 * @file
 * The placement interface between the scenario engine and the
 * schedulers: ClusterPolicy picks a node and a memory mode for every
 * arriving application, on any topology (the paper's two-node testbed
 * is the one-node "paper-pair" rack).  Baselines live in src/core;
 * Adrias itself implements this interface on top of its Predictor.
 */

#ifndef ADRIAS_SCENARIO_PLACEMENT_HH
#define ADRIAS_SCENARIO_PLACEMENT_HH

#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "telemetry/watcher.hh"
#include "testbed/topology.hh"
#include "workloads/spec.hh"

namespace adrias::scenario
{

/** Everything known about a finished deployment. */
struct DeploymentRecord
{
    DeploymentId id = 0;
    std::string name;
    WorkloadClass cls = WorkloadClass::BestEffort;
    MemoryMode mode = MemoryMode::Local;
    SimTime arrival = 0;
    SimTime completion = 0;

    /** BE/interference: wall-clock execution time, seconds. */
    double execTimeSec = 0.0;

    /** LC: tail latencies over the whole run, ms. */
    double p99Ms = 0.0;
    double p999Ms = 0.0;

    double meanSlowdown = 1.0;

    /** Bytes moved over the ThymesisFlow channel, GB. */
    double remoteTrafficGB = 0.0;

    /** L2 migrations performed during the run (0 without a runtime
     *  policy). */
    std::size_t migrations = 0;

    /** Binned Watcher window S captured at arrival (may be empty for
     *  the very first arrivals of a scenario). */
    std::vector<ml::Matrix> historyWindow;

    /** Binned counter trace over the app's own execution span — what
     *  Adrias stores as a signature when it first meets an app. */
    std::vector<ml::Matrix> executionWindow;

    /** @return the headline performance number for this class:
     *  execution time for BE, p99 for LC. */
    double
    primaryMetric() const
    {
        return cls == WorkloadClass::LatencyCritical ? p99Ms : execTimeSec;
    }
};

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

/** What a placement policy may inspect about one node. */
struct NodeView
{
    /** The node's live telemetry. */
    const telemetry::Watcher *watcher = nullptr;

    /** Number of deployments currently running on the node. */
    std::size_t running = 0;
};

/** What a placement policy may inspect about one memory server. */
struct ServerView
{
    /** Allocatable capacity, GB. */
    double capacityGb = 0.0;

    /** Capacity still unallocated, GB. */
    double availableGb = 0.0;
};

/** What a placement policy may inspect about one link. */
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

/** @return the node running the fewest deployments (lowest index on
 *  ties); node 0 on a one-node rack. */
inline std::size_t
leastLoadedNode(const std::vector<NodeView> &nodes)
{
    std::size_t best = 0;
    for (std::size_t n = 1; n < nodes.size(); ++n)
        if (nodes[n].running < nodes[best].running)
            best = n;
    return best;
}

/** Chooses node and memory mode for arriving BE/LC applications. */
class ClusterPolicy
{
  public:
    virtual ~ClusterPolicy() = default;

    /** Short name for bench tables ("random", "adrias-b0.8", ...). */
    virtual std::string name() const = 0;

    /**
     * Decide placement for an arriving application.
     *
     * @param spec the application.
     * @param nodes one view per node, index == node id (never empty).
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

    /** Completion callback with the owning node (Adrias records
     *  signatures here). */
    virtual void
    onCompletion(std::size_t node, const DeploymentRecord &record)
    {
        (void)node;
        (void)record;
    }
};

/**
 * One-node façade over ClusterPolicy: place() picks only the memory
 * mode from node 0's Watcher, and onCompletion() drops the node id.
 * A compatibility shim for code written against the one-node
 * interface (perfbench's TimedPlacement); delete with ROADMAP item 5.
 */
class PlacementPolicy : public ClusterPolicy
{
  public:
    /**
     * Decide the memory mode for an arriving application.
     *
     * @param spec the application about to be deployed.
     * @param watcher live system telemetry at decision time.
     * @param now arrival time.
     */
    virtual MemoryMode place(const workloads::WorkloadSpec &spec,
                             const telemetry::Watcher &watcher,
                             SimTime now) = 0;

    /** Completion callback without the node id. */
    virtual void onCompletion(const DeploymentRecord &record)
    {
        (void)record;
    }

    /** Node 0 in the one-node mode; fatal on a multi-node rack. */
    ClusterPlacement
    place(const workloads::WorkloadSpec &spec,
          const std::vector<NodeView> &nodes, SimTime now) override
    {
        if (nodes.size() != 1)
            fatal("PlacementPolicy '" + name() +
                  "' places on one node, but the rack has " +
                  std::to_string(nodes.size()));
        ClusterPlacement placement;
        placement.mode = place(spec, *nodes.front().watcher, now);
        return placement;
    }

    void
    onCompletion(std::size_t, const DeploymentRecord &record) override
    {
        onCompletion(record);
    }
};

} // namespace adrias::scenario

#endif // ADRIAS_SCENARIO_PLACEMENT_HH
