/**
 * @file
 * Scenario adapter for the DecisionService: a placement policy whose
 * answers come from the batched serving path instead of the inline
 * AdriasOrchestrator.  Both run the same DecisionCore, so this adapter
 * lets every existing scenario/testbed harness exercise the daemon
 * end-to-end, and lets the golden tests compare served decisions
 * against inline ones tick-for-tick.  Completions capture bootstrap
 * signatures with the core's one capture rule.
 *
 * The daemon decides each request against its own shard's window, so
 * the adapter places on a one-node rack only: deciding across a rack's
 * nodes would need the request to name them.
 */

#ifndef ADRIAS_SERVING_SERVED_POLICY_HH
#define ADRIAS_SERVING_SERVED_POLICY_HH

#include <string>

#include "scenario/placement.hh"
#include "serving/decision_service.hh"

namespace adrias::serving
{

/** Adapter knobs. */
struct ServedPolicyConfig
{
    /** Ticks granted between submit and decision (exclusive). */
    SimTime deadlineTicks = 8;

    /** Epoch refresh cadence: a new snapshot at most every this many
     *  ticks (the runner's watcher is re-captured for every shard). */
    SimTime epochTicks = 10;
};

/**
 * Synchronous façade over the DecisionService for the scenario engine:
 * place() submits one request on its deterministic shard and drains the
 * service for the answer the same tick, so scenarios observe the same
 * request/decide cycle a live deployment would — epochs, batching and
 * stats included.  The daemon decides the memory mode on a one-node
 * rack; place() is fatal on a wider one.
 */
// NOLINTNEXTLINE(unused-api): ServingGoldenTest pins it bitwise.
class ServedPlacementPolicy : public scenario::ClusterPolicy
{
  public:
    /**
     * @param service the serving daemon (borrowed; this policy is its
     *        only producer AND its consumer driver).
     * @param signatures mutable registry for bootstrap capture at
     *        completion — must be the same store the service reads.
     */
    ServedPlacementPolicy(DecisionService &service,
                          scenario::SignatureStore &signatures,
                          ServedPolicyConfig config = {});

    std::string name() const override { return "adrias-served"; }

    scenario::ClusterPlacement
    place(const workloads::WorkloadSpec &spec,
          const std::vector<scenario::NodeView> &nodes,
          SimTime now) override;

    void onCompletion(std::size_t node,
                      const scenario::DeploymentRecord &record) override;

  private:
    /** Refresh the service's epoch snapshot when the cadence is due. */
    void refreshEpoch(const telemetry::Watcher &watcher, SimTime now);

    DecisionService *service;
    scenario::SignatureStore *signatures;
    ServedPolicyConfig knobs;
    DeploymentId nextId = 0;
    bool epochStarted = false;
    SimTime nextEpochAt = 0;
};

} // namespace adrias::serving

#endif // ADRIAS_SERVING_SERVED_POLICY_HH
