/**
 * @file
 * Stepwise scenario execution engine — the one tick loop of the
 * reproduction.
 *
 * The engine runs one arrival stream on the M compute nodes of any
 * Topology: the paper's two-node machine is the one-node "paper-pair"
 * rack, a cluster is a wider one.  It drives a RackTestbed directly and
 * keeps, per node, a Watcher, the running deployments with their
 * (server, link, reserved GB) routes and a ScenarioResult.
 * ScenarioRunner::run() and ClusterScenarioRunner::run() only
 * construct an engine, step it to the end and finish it.  Recovery
 * needs the loop sliced into single ticks with every piece of evolving
 * state (RNG streams, testbed noise, watcher histories, running
 * instances, reservations, partial results) held as members, so it can
 * be snapshotted between ticks and restored bit-exactly after a crash.
 *
 * One tick, on every topology:
 *   1. link fault state, per link by name, from the fault injector;
 *   2. arrivals: dropped before any draw when every node is at
 *      maxConcurrent; trashers land on a random node (drawn only when
 *      there is more than one) in a random mode, routed with
 *      routeOnRack; applications go through ClusterPolicy::placeRack,
 *      and a full chosen node drops them after placement;
 *   3. one shared rack second of contention;
 *   4. per node, counter samples through the fault injector into the
 *      node's Watcher;
 *   5. progress, the optional L2 runtime hook (one-node runs) and
 *      completions, which release remote reservations.
 *
 * Placement decisions flow through an optional DecisionSink *before*
 * they are applied (write-ahead): the recovery layer appends them to a
 * durable journal so a crash between checkpoints can be replayed.
 * During replay the engine still queries the policy (keeping policy
 * RNG streams advancing identically) and cross-checks each re-derived
 * decision against the queued journal entry; any divergence is a
 * determinism bug and panics rather than silently forking the run.
 * The journal records the memory mode only, which is the whole
 * decision on one node.
 */

#ifndef ADRIAS_SCENARIO_ENGINE_HH
#define ADRIAS_SCENARIO_ENGINE_HH

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hh"
#include "common/io/binary.hh"
#include "common/io/checkpoint_annotations.hh"
#include "common/io/checkpointable.hh"
#include "common/rng.hh"
#include "fault/fault.hh"
#include "scenario/cluster.hh"
#include "scenario/runner.hh"
#include "scenario/runtime.hh"
#include "telemetry/watcher.hh"
#include "testbed/rack.hh"
#include "testbed/topology.hh"
#include "workloads/workload.hh"

namespace adrias::scenario
{

/** One policy placement decision, as journaled write-ahead. */
struct PlacementDecision
{
    /** Tick on which the decision was made. */
    SimTime tick = 0;

    /** Deployment id assigned to the arrival. */
    DeploymentId id = 0;

    /** Spec (by canonical name) the decision was made for. */
    std::string specName;

    /** The chosen placement. */
    MemoryMode mode = MemoryMode::Local;

    bool
    operator==(const PlacementDecision &other) const
    {
        return tick == other.tick && id == other.id &&
               specName == other.specName && mode == other.mode;
    }
};

/**
 * Observer of placement decisions, invoked BEFORE a decision takes
 * effect.  Implementations must make the decision durable before
 * returning (write-ahead contract); throwing aborts the tick.
 */
class DecisionSink
{
  public:
    virtual ~DecisionSink() = default;

    /** Called once per policy placement, before the app deploys. */
    virtual void onDecision(const PlacementDecision &decision) = 0;
};

/** Single-tick scenario execution with full state capture. */
class ScenarioEngine : public io::Checkpointable
{
  public:
    /**
     * @param config scenario knobs (validateScenarioConfig); the rack
     *        is topologyByName(config.topology).
     */
    explicit ScenarioEngine(ScenarioConfig config);

    /**
     * @param topology the rack to run on (config.topology is not
     *        consulted).
     * @param config scenario knobs (validateScenarioConfig).
     */
    ScenarioEngine(testbed::Topology topology, ScenarioConfig config);

    /** @return true once the configured duration has elapsed. */
    bool finished() const { return now_ >= config.durationSec; }

    /** Current simulation time (ticks executed so far). */
    SimTime now() const { return now_; }

    /**
     * Execute exactly one simulated second on the whole rack: link
     * faults, arrivals placed by `policy`, contention, telemetry,
     * progress and completions.  The optional L2 `runtime` sees every
     * tick of a one-node rack (fatal on a multi-node topology).
     *
     * @pre !finished()
     */
    void stepTick(ClusterPolicy &policy, RuntimePolicy *runtime = nullptr);

    /**
     * Finalize a one-node run and move node 0's result out (fault
     * summary and watcher health are stamped here).  Fatal on a
     * multi-node topology.
     *
     * @pre finished()
     */
    ScenarioResult finish();

    /**
     * Finalize and move the whole rack's result out.
     *
     * @pre finished()
     */
    ClusterResult finishCluster();

    /** Number of currently running deployments, over all nodes. */
    std::size_t runningCount() const;

    /** Attach/detach the write-ahead decision observer. */
    void setDecisionSink(DecisionSink *sink) { decisionSink = sink; }

    /**
     * Queue one journaled decision for replay verification.  While the
     * queue is non-empty, stepTick() checks each policy decision
     * against the queue head instead of notifying the sink.
     */
    void queueReplayDecision(const PlacementDecision &decision);

    /** Journal entries still awaiting replay. */
    std::size_t pendingReplay() const { return replayQueue.size(); }

    // --- Checkpointable ------------------------------------------------
    std::string checkpointTag() const override
    {
        return "scenario-engine";
    }

    /**
     * Serialize all evolving state: the tick cursor and RNG, the rack,
     * the injector tallies, per node the Watcher, partial result and
     * running deployments with their reservations, the rack traffic
     * total and the drop and fallback tallies.  Must not be called
     * while replay decisions are pending (the queue belongs to the
     * previous journal epoch); the CheckpointManager defers
     * checkpoints until the queue drains.
     */
    void saveState(io::BinaryWriter &out) const override;

    /** Restore a payload written by saveState(). */
    [[nodiscard]] Result<void>
    restoreState(io::BinaryReader &in) override;

    /** History window length r and horizon z, seconds (paper: 120). */
    static constexpr std::size_t kWindowSec = ScenarioRunner::kWindowSec;

    /** Sequence bins used for model inputs (10 s bins over 120 s). */
    static constexpr std::size_t kWindowBins =
        ScenarioRunner::kWindowBins;

  private:
    /** A running deployment and the remote capacity it holds. */
    struct RunningApp
    {
        std::unique_ptr<workloads::WorkloadInstance> instance;
        std::size_t server = 0;
        std::size_t link = 0;
        double reservedGb = 0.0;
    };

    /** One compute node's telemetry, deployments and result. */
    struct Node
    {
        std::unique_ptr<telemetry::Watcher> watcher;
        std::vector<RunningApp> running;
        ScenarioResult result;
    };

    ScenarioConfig config ADRIAS_NOT_CHECKPOINTED(
        "construction-time configuration; restoreState validates the "
        "snapshot against it");

    // Evolving state, in construction order (the rack's noise seed is
    // the scenario Rng's first draw).
    Rng rng;
    testbed::RackTestbed bed;
    fault::FaultInjector injector;

    std::vector<Node> nodes;
    double totalRemoteTrafficGB = 0.0;
    std::size_t droppedArrivals = 0;
    std::size_t remoteFallbacks = 0;
    DeploymentId nextId = 1;
    SimTime nextArrival = 0;
    SimTime now_ = 0;

    DecisionSink *decisionSink ADRIAS_NOT_CHECKPOINTED(
        "runtime observer wiring, re-attached after restore") = nullptr;
    std::deque<PlacementDecision> replayQueue ADRIAS_NOT_CHECKPOINTED(
        "transient replay scaffolding; saveState panics mid-replay");

    /** Set every link's fault derating for this tick. */
    void applyLinkFaults();

    /** Live rack state for routing and placeRack. */
    RackView rackView() const;

    /** Deploy arrivals scheduled at or before now_. */
    void admitArrivals(ClusterPolicy &policy);

    /** Journal a policy decision, or check it against the replay. */
    void recordDecision(const PlacementDecision &decision);

    /** Count one dropped arrival. */
    void dropArrival();

    /** Feed one node's counter sample through the fault injector. */
    void observeNode(std::size_t node,
                     const testbed::NodeTickStats &stats);

    /** Harvest one node's finished instances into records. */
    void harvestCompletions(std::size_t node, ClusterPolicy &policy);
};

} // namespace adrias::scenario

#endif // ADRIAS_SCENARIO_ENGINE_HH
