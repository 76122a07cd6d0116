/**
 * @file
 * The Adrias Orchestrator (paper §V-C, centralised per §VII): the
 * interference-aware placement policy of the scenario engine.  The
 * paper's rules live in the DecisionCore (decision_core.hh), which
 * this class and the DecisionService share; a placement here is the
 * core's batch of one, over every node of the rack.
 *
 * What the orchestrator adds around the core: each node's Watcher is
 * turned into a binned window (a node without samples is cold) and its
 * health is summed into the decision stats, the decision is reported
 * to the observability layer, placeRack() routes it onto the rack,
 * completions capture bootstrap signatures, and the tallies and the
 * signature store checkpoint.  On the paper's one-node rack this is
 * exactly the two-node prototype's rule.
 */

#ifndef ADRIAS_CORE_ORCHESTRATOR_HH
#define ADRIAS_CORE_ORCHESTRATOR_HH

#include <string>
#include <vector>

#include "common/io/checkpoint_annotations.hh"
#include "core/decision_core.hh"
#include "telemetry/watcher.hh"

namespace adrias::core
{

/** Per-run decision statistics. */
struct OrchestratorStats
{
    std::size_t localPlacements = 0;
    std::size_t remotePlacements = 0;
    std::size_t bootstrapPlacements = 0; ///< unknown-app remote runs

    /** Decisions served by the heuristic fallback (degraded mode). */
    std::size_t fallbackPlacements = 0;

    /** Prediction attempts that raised PredictionUnavailable. */
    std::size_t predictionFailures = 0;

    /** Merged from the guard's breaker (0 without a guard). */
    std::size_t breakerTrips = 0;
    std::size_t breakerRecoveries = 0;

    /** Merged from the Watchers seen at the last decision, summed
     *  over nodes. */
    std::size_t samplesRepaired = 0;
    std::size_t samplesDropped = 0;
};

/**
 * Interference-aware memory orchestrator.  Its decision is the
 * ClusterPolicy place(); the one-node place(spec, watcher, now) of the
 * base façade (placement.hh) runs the same decision on a single node.
 */
class AdriasOrchestrator : public scenario::PlacementPolicy
{
  public:
    /**
     * @param predictor trained prediction stack (borrowed).
     * @param signatures signature registry (borrowed; grows as unknown
     *        apps are bootstrapped).
     * @param config policy knobs.
     */
    AdriasOrchestrator(const models::PredictorBase &predictor,
                       scenario::SignatureStore &signatures,
                       AdriasConfig config = {});

    /**
     * Guarded variant: decisions flow through the guard's breaker and
     * deadline, and prediction failures fall back to the heuristic
     * degraded-mode policy instead of crashing the placement loop.
     */
    AdriasOrchestrator(models::GuardedPredictor &guard,
                       scenario::SignatureStore &signatures,
                       AdriasConfig config = {});

    std::string name() const override;

    /** Pick the (node, mode) pair with the best predicted outcome. */
    scenario::ClusterPlacement
    place(const workloads::WorkloadSpec &spec,
          const std::vector<scenario::NodeView> &nodes,
          SimTime now) override;

    /** The same decision on one node: only the mode is returned. */
    MemoryMode place(const workloads::WorkloadSpec &spec,
                     const telemetry::Watcher &watcher,
                     SimTime now) override;

    /**
     * Rack-aware placement: the predicted-best (node, mode) is routed
     * onto the rack; when the chosen node has no surviving remote
     * route (dead links, drained servers), other nodes are tried in
     * load order before the decision degrades to local memory.
     */
    scenario::ClusterPlacement
    placeRack(const workloads::WorkloadSpec &spec,
              const std::vector<scenario::NodeView> &nodes,
              const scenario::RackView &rack, SimTime now) override;

    void onCompletion(const scenario::DeploymentRecord &record) override;

    /** Decision tallies, with breaker and telemetry-repair counters
     *  merged in when a guard is attached. */
    OrchestratorStats stats() const;

    const AdriasConfig &config() const { return rules.config(); }

    /** @return true while the prediction path is degraded (guarded
     *  variant only; false without a guard). */
    bool degraded() const;

    /** QoS threshold applied to one LC application. */
    double
    qosFor(const std::string &app) const
    {
        return rules.qosFor(app);
    }

    /** The core's BE and LC rules, under the names callers spell. */
    static constexpr auto decideBestEffort = DecisionCore::decideBestEffort;
    static constexpr auto decideLatencyCritical =
        DecisionCore::decideLatencyCritical;

    /**
     * Serialize the decision tallies, last-seen watcher health and the
     * (borrowed, bootstrap-grown) signature store.  The guard — when
     * attached — checkpoints separately under its own tag.
     */
    void saveState(io::BinaryWriter &out) const;

    /** Restore a payload written by saveState(). */
    [[nodiscard]] Result<void> restoreState(io::BinaryReader &in);

  private:
    DecisionCore rules ADRIAS_NOT_CHECKPOINTED(
        "model wiring and configuration, re-supplied at construction");
    scenario::SignatureStore *signatures;
    OrchestratorStats decisionStats;

    /** Health of the Watchers seen at the last decision: counts summed
     *  over nodes, staleness the worst node's. */
    telemetry::WatcherHealth lastWatcherHealth;
};

} // namespace adrias::core

#endif // ADRIAS_CORE_ORCHESTRATOR_HH
