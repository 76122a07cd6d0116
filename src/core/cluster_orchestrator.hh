/**
 * @file
 * Cluster-level Adrias (paper §VII): per-node Watchers feed the shared
 * Predictor; the centralized orchestrator picks the (node, mode) pair
 * with the best predicted outcome, breaking iso-QoS ties by
 * cluster-level efficiency (least-loaded node).
 */

#ifndef ADRIAS_CORE_CLUSTER_ORCHESTRATOR_HH
#define ADRIAS_CORE_CLUSTER_ORCHESTRATOR_HH

#include "core/orchestrator.hh"
#include "scenario/cluster.hh"

namespace adrias::core
{

/** Interference-aware cluster scheduler. */
class AdriasClusterOrchestrator : public scenario::ClusterPolicy
{
  public:
    /**
     * @param predictor trained prediction stack (borrowed).
     * @param signatures signature registry (borrowed).
     * @param config the same policy knobs as the single-node
     *        orchestrator (β, QoS).
     */
    AdriasClusterOrchestrator(const models::PredictorBase &predictor,
                              scenario::SignatureStore &signatures,
                              AdriasConfig config = {});

    std::string name() const override;

    scenario::ClusterPlacement
    place(const workloads::WorkloadSpec &spec,
          const std::vector<scenario::NodeView> &nodes,
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

    void onCompletion(std::size_t node,
                      const scenario::DeploymentRecord &record) override;

    /**
     * Relative prediction margin below which two candidates are
     * considered iso-QoS and the tie is broken by node load.
     */
    static constexpr double kIsoMargin = 0.05;

  private:
    const models::PredictorBase *predictor;
    scenario::SignatureStore *signatures;
    AdriasConfig policy;

    /** Per-node, per-mode predicted performance for one app. */
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
};

} // namespace adrias::core

#endif // ADRIAS_CORE_CLUSTER_ORCHESTRATOR_HH
