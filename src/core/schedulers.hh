/**
 * @file
 * Baseline scheduling policies the paper compares Adrias against
 * (§VI-B): Random (scenario::RandomPlacement), Round-Robin and
 * All-Local, plus the all-remote stress baseline.  Each places on the
 * least-loaded node, which is node 0 on the paper's one-node rack.
 */

#ifndef ADRIAS_CORE_SCHEDULERS_HH
#define ADRIAS_CORE_SCHEDULERS_HH

#include "scenario/placement.hh"

namespace adrias::core
{

/** Alternates local/remote placements deterministically. */
class RoundRobinScheduler : public scenario::ClusterPolicy
{
  public:
    std::string name() const override { return "round-robin"; }

    scenario::ClusterPlacement
    place(const workloads::WorkloadSpec &,
          const std::vector<scenario::NodeView> &nodes, SimTime) override
    {
        nextRemote = !nextRemote;
        return {scenario::leastLoadedNode(nodes),
                nextRemote ? MemoryMode::Remote : MemoryMode::Local};
    }

  private:
    bool nextRemote = false;
};

/** Places everything on local DRAM (the conventional deployment). */
class AllLocalScheduler : public scenario::ClusterPolicy
{
  public:
    std::string name() const override { return "all-local"; }

    scenario::ClusterPlacement
    place(const workloads::WorkloadSpec &,
          const std::vector<scenario::NodeView> &nodes, SimTime) override
    {
        return {scenario::leastLoadedNode(nodes), MemoryMode::Local};
    }
};

/**
 * Places everything on disaggregated memory: every app prefers remote
 * memory on the least-loaded node, and the default placeRack() routing
 * demotes it to local only when no healthy link reaches a server with
 * room.
 */
class LeastLoadedRemotePolicy : public scenario::ClusterPolicy
{
  public:
    std::string name() const override { return "least-loaded-remote"; }

    scenario::ClusterPlacement
    place(const workloads::WorkloadSpec &,
          const std::vector<scenario::NodeView> &nodes, SimTime) override
    {
        return {scenario::leastLoadedNode(nodes), MemoryMode::Remote};
    }
};

} // namespace adrias::core

#endif // ADRIAS_CORE_SCHEDULERS_HH
