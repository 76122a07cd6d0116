/**
 * @file
 * Stepwise scenario execution engine — the checkpointable core of
 * ScenarioRunner.
 *
 * ScenarioRunner::run() drives a whole scenario in one call; recovery
 * needs the same loop sliced into single ticks with every piece of
 * evolving state (RNG streams, testbed noise, watcher history, running
 * instances, partial results) held as members so it can be snapshotted
 * between ticks and restored bit-exactly after a crash.  The engine
 * reproduces the runner's historical tick loop verbatim — same RNG call
 * order, same observability — so a run driven through stepTick() is
 * byte-identical to the monolithic loop it replaced.
 *
 * Placement decisions flow through an optional DecisionSink *before*
 * they are applied (write-ahead): the recovery layer appends them to a
 * durable journal so a crash between checkpoints can be replayed.
 * During replay the engine still queries the policy (keeping policy
 * RNG streams advancing identically) and cross-checks each re-derived
 * decision against the queued journal entry; any divergence is a
 * determinism bug and panics rather than silently forking the run.
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
#include "scenario/runner.hh"
#include "scenario/runtime.hh"
#include "telemetry/watcher.hh"
#include "testbed/testbed.hh"
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
     * @param config scenario knobs (validated like ScenarioRunner); the
     *        machine is topologyByName(config.topology), which must be
     *        one node behind one link.
     */
    explicit ScenarioEngine(ScenarioConfig config);

    /** @return true once the configured duration has elapsed. */
    bool finished() const { return now_ >= config.durationSec; }

    /** Current simulation time (ticks executed so far). */
    SimTime now() const { return now_; }

    /**
     * Execute exactly one simulated second: arrivals, contention,
     * telemetry, progress and completions.
     *
     * @pre !finished()
     */
    void stepTick(PlacementPolicy &policy,
                  RuntimePolicy *runtime = nullptr);

    /**
     * Finalize and move the result out (fault summary and watcher
     * health are stamped here, as the monolithic runner did at loop
     * exit).
     *
     * @pre finished()
     */
    ScenarioResult finish();

    /** Live telemetry (for policies queried outside stepTick). */
    const telemetry::Watcher &watcher() const { return watcherState; }

    /** Number of currently running deployments. */
    std::size_t runningCount() const { return running.size(); }

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
     * Serialize all evolving state.  Must not be called while replay
     * decisions are pending (the queue belongs to the previous journal
     * epoch); the CheckpointManager defers checkpoints until the queue
     * drains.
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
    ScenarioConfig config ADRIAS_NOT_CHECKPOINTED(
        "construction-time configuration; restoreState validates the "
        "snapshot against it");

    // Evolving state, in the exact construction order of the
    // historical ScenarioRunner::run() preamble (the Testbed seed is
    // the scenario Rng's first draw).
    Rng rng;
    testbed::Testbed bed;
    telemetry::Watcher watcherState;
    fault::FaultInjector injector;

    ScenarioResult result;
    std::vector<std::unique_ptr<workloads::WorkloadInstance>> running;
    DeploymentId nextId = 1;
    SimTime nextArrival = 0;
    SimTime now_ = 0;

    DecisionSink *decisionSink ADRIAS_NOT_CHECKPOINTED(
        "runtime observer wiring, re-attached after restore") = nullptr;
    std::deque<PlacementDecision> replayQueue ADRIAS_NOT_CHECKPOINTED(
        "transient replay scaffolding; saveState panics mid-replay");

    /** Deploy arrivals scheduled at or before now_. */
    void admitArrivals(PlacementPolicy &policy);

    /** Harvest finished instances into completion records. */
    void harvestCompletions(PlacementPolicy &policy);
};

} // namespace adrias::scenario

#endif // ADRIAS_SCENARIO_ENGINE_HH
