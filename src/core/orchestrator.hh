/**
 * @file
 * The Adrias Orchestrator (paper §V-C, centralised per §VII): the
 * interference-aware placement policy that queries the Predictor and
 * applies the paper's decision rules —
 *
 *   BE:  local  iff  t̂_local < β · t̂_remote
 *   LC:  remote iff  p̂99_remote ≤ QoS
 *
 * One class places on every topology.  Each node keeps its own
 * Watcher; a decision asks the Predictor one question, a
 * predictPerformanceBatch() over every warm node × {Local, Remote}
 * sharing one signature (so Ŝ and k are encoded once, and each node's
 * window once).  Per node the β / QoS rule picks the mode; across
 * nodes the best prediction wins and near-ties (kIsoMargin) go to the
 * least-loaded node.  On the paper's one-node rack this is exactly the
 * two-node prototype's rule.
 *
 * Applications without a stored signature are bootstrapped on remote
 * memory (least-loaded node) and their signature is captured from
 * their execution window; with no warm node the decision is local.
 */

#ifndef ADRIAS_CORE_ORCHESTRATOR_HH
#define ADRIAS_CORE_ORCHESTRATOR_HH

#include <map>
#include <string>
#include <vector>

#include "common/io/checkpoint_annotations.hh"
#include "models/guard.hh"
#include "models/predictor.hh"
#include "scenario/placement.hh"
#include "scenario/signature.hh"
#include "telemetry/watcher.hh"

namespace adrias::core
{

/** Policy knobs of the orchestrator. */
struct AdriasConfig
{
    /**
     * Slack β for best-effort apps: the performance-loss margin we
     * accept to leverage remote memory (paper sweeps 1.0 … 0.6).
     */
    double beta = 0.8;

    /** QoS constraint on predicted p99, ms, per LC application name. */
    std::map<std::string, double> qosP99Ms;

    /** Fallback QoS when an LC app has no explicit entry. */
    double defaultQosP99Ms = 1.0;

    /**
     * Degraded-mode placement when the prediction path is
     * unavailable.  BE apps take the paper's bootstrap default
     * (remote); LC apps take the QoS-conservative choice (local).
     */
    MemoryMode degradedBeMode = MemoryMode::Remote;
    MemoryMode degradedLcMode = MemoryMode::Local;
};

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

    const AdriasConfig &config() const { return policy; }

    /** @return true while the prediction path is degraded (guarded
     *  variant only; false without a guard). */
    bool degraded() const;

    /** QoS threshold applied to one LC application. */
    double qosFor(const std::string &name) const;

    /**
     * Relative prediction margin below which two candidates are
     * considered iso-QoS and the tie is broken by node load.
     */
    static constexpr double kIsoMargin = 0.05;

    /**
     * The paper's BE decision rule (§V-C): local iff
     * t̂_local < β · t̂_remote.  Shared by place() and the
     * DecisionService so batched and inline decisions can never
     * diverge on the rule itself.
     */
    static MemoryMode
    decideBestEffort(double t_local, double t_remote, double beta)
    {
        return t_local < beta * t_remote ? MemoryMode::Local
                                         : MemoryMode::Remote;
    }

    /** The paper's LC decision rule: remote iff p̂99_remote ≤ QoS. */
    static MemoryMode
    decideLatencyCritical(double p99_remote, double qos)
    {
        return p99_remote <= qos ? MemoryMode::Remote
                                 : MemoryMode::Local;
    }

    /**
     * Serialize the decision tallies, last-seen watcher health and the
     * (borrowed, bootstrap-grown) signature store.  The guard — when
     * attached — checkpoints separately under its own tag.
     */
    void saveState(io::BinaryWriter &out) const;

    /** Restore a payload written by saveState(). */
    [[nodiscard]] Result<void> restoreState(io::BinaryReader &in);

  private:
    const models::PredictorBase *predictor ADRIAS_NOT_CHECKPOINTED(
        "borrowed model wiring, re-attached at construction");
    models::GuardedPredictor *guard ADRIAS_NOT_CHECKPOINTED(
        "the guard checkpoints separately under its own tag") = nullptr;
    scenario::SignatureStore *signatures;
    AdriasConfig policy ADRIAS_NOT_CHECKPOINTED(
        "construction-time configuration, re-supplied on restore");
    OrchestratorStats decisionStats;

    /** Health of the Watchers seen at the last decision: counts summed
     *  over nodes, staleness the worst node's. */
    telemetry::WatcherHealth lastWatcherHealth;

    /** Predicted performance of one app on one (node, mode). */
    struct Candidate
    {
        std::size_t node = 0;
        MemoryMode mode = MemoryMode::Local;
        double predicted = 0.0;
        std::size_t running = 0;
    };

    /**
     * One predictPerformanceBatch() over every (warm node × mode) row,
     * node order, Local before Remote; cold nodes contribute no rows.
     */
    std::vector<Candidate>
    predictAll(const workloads::WorkloadSpec &spec,
               const std::vector<scenario::NodeView> &nodes) const;

    /** Apply the β / QoS rules across the (non-empty) candidates.
     *  @return the index of the chosen candidate. */
    std::size_t choose(const workloads::WorkloadSpec &spec,
                       const std::vector<Candidate> &candidates) const;

    /** Heuristic placement used when predictions are unavailable. */
    MemoryMode fallbackPlacement(const workloads::WorkloadSpec &spec);
};

} // namespace adrias::core

#endif // ADRIAS_CORE_ORCHESTRATOR_HH
