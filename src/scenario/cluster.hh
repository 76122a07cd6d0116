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
 * (Topology::independentPairs).  The placement interface
 * (ClusterPolicy, NodeView, RackView, routeOnRack) is in placement.hh.
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
