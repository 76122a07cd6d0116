/**
 * @file
 * Scenario generation and execution (paper §V-B1): random application
 * arrivals with configurable spawn intervals, random benchmark choice
 * from the Spark/LC/iBench pools, and tick-by-tick execution against
 * the simulated ThymesisFlow testbed while the Watcher samples
 * performance events.
 */

#ifndef ADRIAS_SCENARIO_RUNNER_HH
#define ADRIAS_SCENARIO_RUNNER_HH

#include <functional>
#include <memory>
#include <vector>

#include "common/io/binary.hh"
#include "common/io/checkpointable.hh"
#include "common/rng.hh"
#include "fault/fault.hh"
#include "scenario/placement.hh"
#include "scenario/runtime.hh"
#include "testbed/testbed.hh"
#include "workloads/workload.hh"

namespace adrias::scenario
{

/** Knobs of one randomized deployment scenario. */
struct ScenarioConfig
{
    /** Scenario length, seconds (paper: 3600). */
    SimTime durationSec = 3600;

    /** Arrival spacing is uniform in [spawnMin, spawnMax] seconds. */
    SimTime spawnMinSec = 5;
    SimTime spawnMaxSec = 40;

    std::uint64_t seed = 1;

    /** Concurrency cap (paper footnote 3: at most 35). */
    std::size_t maxConcurrent = 35;

    /** Probability an arrival is an iBench trasher. */
    double ibenchFraction = 0.35;

    /** Probability an arrival is a latency-critical server. */
    double lcFraction = 0.15;

    /** Relative measurement noise of the counters. */
    double counterNoise = 0.01;

    /**
     * Deterministic fault schedule executed alongside the scenario
     * (empty by default).  Link faults derate the testbed's channel;
     * counter faults corrupt the Watcher's input; predictor faults are
     * picked up by a GuardedPredictor built over the same schedule.
     */
    fault::FaultSchedule faults{};

    /**
     * Named rack topology (testbed::topologyByName) the scenario runs
     * on — the only way to name the machine.  The default "paper-pair"
     * is the two-node prototype, a one-node rack; a ClusterPolicy
     * places on every topology.
     */
    std::string topology = "paper-pair";
};

/**
 * Reject a config no run mode can execute (fatal): a non-positive
 * duration, an empty or inverted spawn interval, or arrival fractions
 * summing past 1.  ScenarioRunner, ClusterScenarioRunner and
 * ScenarioEngine all check through here.
 */
void validateScenarioConfig(const ScenarioConfig &config);

/** Everything a finished scenario produced. */
struct ScenarioResult
{
    /** Per-second counter samples (the Watcher's trace). */
    std::vector<testbed::CounterSample> trace;

    /** Per-second number of concurrently running deployments. */
    std::vector<int> concurrency;

    /** Completed deployments (all classes, trashers included). */
    std::vector<DeploymentRecord> records;

    /** Total ThymesisFlow traffic over the scenario, GB. */
    double totalRemoteTrafficGB = 0.0;

    /** What the fault injector actually did during the run. */
    fault::FaultStats faultSummary{};

    /** Watcher self-repair tallies at scenario end. */
    telemetry::WatcherHealth watcherHealth{};
};

/**
 * A random placement hook used for trace collection (paper: apps are
 * deployed "randomly on local or remote memory").  The node is drawn
 * only when there is more than one — the engine's trasher rule — so a
 * one-node run consumes one draw per decision.  Checkpointable so a
 * crash-recovered run re-derives the exact same placements.
 */
class RandomPlacement : public ClusterPolicy, public io::Checkpointable
{
  public:
    explicit RandomPlacement(std::uint64_t seed = 99) : rng(seed) {}

    std::string name() const override { return "random"; }

    ClusterPlacement
    place(const workloads::WorkloadSpec &,
          const std::vector<NodeView> &nodes, SimTime) override
    {
        ClusterPlacement placement;
        if (nodes.size() > 1)
            placement.node = static_cast<std::size_t>(rng.uniformInt(
                0, static_cast<std::int64_t>(nodes.size()) - 1));
        placement.mode = rng.bernoulli(0.5) ? MemoryMode::Remote
                                            : MemoryMode::Local;
        return placement;
    }

    std::string checkpointTag() const override
    {
        return "random-placement";
    }

    /** Serialize the policy's exact RNG stream position. */
    void saveState(io::BinaryWriter &out) const override
    {
        rng.saveState(out);
    }

    /** Restore a position saved with saveState(). */
    [[nodiscard]] Result<void>
    restoreState(io::BinaryReader &in) override
    {
        rng.restoreState(in);
        return in.status();
    }

  private:
    Rng rng;
};

/**
 * Binned history window S for a deployment that arrived at `arrival`
 * within a recorded trace: the 120 s (or whatever is available) before
 * arrival, aggregated into ScenarioRunner::kWindowBins steps.  Returns
 * an empty sequence for arrivals in the very first second.
 */
std::vector<ml::Matrix>
historyWindowAt(const std::vector<testbed::CounterSample> &trace,
                SimTime arrival);

/** One arrival's application, drawn from a scenario's class mix. */
struct ArrivalDraw
{
    const workloads::WorkloadSpec *spec = nullptr;

    /** iBench trashers bypass the placement policy. */
    bool isIBench = false;
};

/**
 * Draw the next arrival's application: one uniform picks the class
 * (iBench / LC / Spark by the config's fractions), one uniformInt the
 * benchmark within it.  Every run mode draws through here, so the RNG
 * call order is the same everywhere.
 */
ArrivalDraw drawArrival(const ScenarioConfig &config, Rng &rng);

/**
 * Completion record of an instance that finished during tick `now`,
 * with its history and execution windows cut from `trace` (the
 * telemetry of the node it ran on).
 */
DeploymentRecord
completionRecord(const workloads::WorkloadInstance &done, SimTime now,
                 const std::vector<testbed::CounterSample> &trace);

/** Drives one scenario tick by tick. */
class ScenarioRunner
{
  public:
    /** @param config scenario knobs, machine included. */
    explicit ScenarioRunner(ScenarioConfig config);

    /**
     * Execute the scenario to completion on a one-node topology
     * (ClusterScenarioRunner returns every node of a wider rack).
     *
     * @param policy decides local/remote for BE and LC arrivals
     *        (iBench trashers are always placed randomly, as in the
     *        paper's trace-collection protocol).
     * @param runtime optional L2 runtime manager invoked every tick
     *        (may migrate running instances between pools).
     * @return the full trace and all completion records.
     */
    ScenarioResult run(ClusterPolicy &policy,
                       RuntimePolicy *runtime = nullptr);

    /** History window length r and horizon z, seconds (paper: 120). */
    static constexpr std::size_t kWindowSec = 120;

    /** Sequence bins used for model inputs (10 s bins over 120 s). */
    static constexpr std::size_t kWindowBins = 12;

  private:
    ScenarioConfig config;
};

/** One entry of a multi-seed sweep. */
struct SweepItem
{
    ScenarioConfig config;

    /** Seed of the per-item RandomPlacement policy. */
    std::uint64_t policySeed = 99;
};

/**
 * Run many independent scenarios — one Testbed, Watcher and policy per
 * item — fanned out across the global ThreadPool (DESIGN.md §9).
 *
 * Policies are constructed serially in item order before any scenario
 * starts (factories may share an Rng), then every item runs in
 * isolation and writes its own result slot, so the returned vector is
 * bitwise identical to running the items one by one in a loop,
 * regardless of ADRIAS_THREADS.
 *
 * @param configs per-item scenario knobs.
 * @param makePolicy called once per item index, in order, to build
 *        that item's placement policy (must not share mutable state
 *        across items).
 */
std::vector<ScenarioResult> runScenarioSweep(
    const std::vector<ScenarioConfig> &configs,
    const std::function<std::unique_ptr<ClusterPolicy>(std::size_t)>
        &makePolicy);

/** RandomPlacement convenience overload over SweepItems. */
std::vector<ScenarioResult>
runScenarioSweep(const std::vector<SweepItem> &items);

} // namespace adrias::scenario

#endif // ADRIAS_SCENARIO_RUNNER_HH
