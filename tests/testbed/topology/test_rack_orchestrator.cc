/**
 * @file
 * The Adrias orchestrator's resilience machinery on the CI-selected
 * topology: a GuardedPredictor with a predictor-crash window drives a
 * whole run (degraded-mode fallbacks, every decision on a valid
 * route), and a mid-run checkpoint of engine, orchestrator (with its
 * bootstrap-grown signature store) and guard resumes into the same
 * later decisions.  Uses a training-free stub predictor.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/io/binary.hh"
#include "core/orchestrator.hh"
#include "fault/fault.hh"
#include "models/guard.hh"
#include "scenario/engine.hh"
#include "testbed/topology.hh"
#include "topology_under_test.hh"

namespace adrias::testbed
{
namespace
{

/** Predictions derived from the node's channel latency: placements
 *  react to congestion without any training. */
class CongestionStub : public models::PredictorBase
{
  public:
    ml::Matrix
    predictSystemState(const telemetry::Watcher &) const override
    {
        return ml::Matrix(1, kNumPerfEvents);
    }

    double
    predictPerformance(WorkloadClass cls,
                       const std::vector<ml::Matrix> &history,
                       const std::vector<ml::Matrix> &,
                       MemoryMode mode) const override
    {
        const auto chan_lat = static_cast<std::size_t>(PerfEvent::ChannelLat);
        const double congestion = history.back().at(0, chan_lat) / 350.0;
        if (cls == WorkloadClass::BestEffort)
            return mode == MemoryMode::Remote ? 110.0 * congestion : 95.0;
        return mode == MemoryMode::Remote ? 0.8 * congestion : 0.5;
    }

    bool trained() const override { return true; }
};

/** One routed decision as the engine received it. */
struct Decision
{
    SimTime tick = 0;
    scenario::ClusterPlacement placement;

    bool
    operator==(const Decision &other) const
    {
        return tick == other.tick &&
               placement.node == other.placement.node &&
               placement.mode == other.placement.mode &&
               placement.server == other.placement.server &&
               placement.link == other.placement.link;
    }
};

/** Forwards to the orchestrator, checks and records every decision. */
class RouteChecker : public scenario::ClusterPolicy
{
  public:
    explicit RouteChecker(core::AdriasOrchestrator &inner_) : inner(inner_)
    {
    }

    std::string name() const override { return inner.name(); }

    scenario::ClusterPlacement
    place(const workloads::WorkloadSpec &spec,
          const std::vector<scenario::NodeView> &nodes,
          SimTime now) override
    {
        return inner.place(spec, nodes, now);
    }

    scenario::ClusterPlacement
    placeRack(const workloads::WorkloadSpec &spec,
              const std::vector<scenario::NodeView> &nodes,
              const scenario::RackView &rack, SimTime now) override
    {
        const scenario::ClusterPlacement placement =
            inner.placeRack(spec, nodes, rack, now);
        EXPECT_LT(placement.node, nodes.size());
        if (placement.mode == MemoryMode::Remote) {
            EXPECT_LT(placement.link, rack.links.size());
            const LinkDesc &link = rack.topology->link(placement.link);
            EXPECT_EQ(link.node, placement.node);
            EXPECT_EQ(link.server, placement.server);
            EXPECT_TRUE(rack.links[placement.link].healthy());
            EXPECT_GE(rack.servers[placement.server].availableGb,
                      spec.memoryFootprintGb);
        }
        decisions.push_back({now, placement});
        return placement;
    }

    void
    onCompletion(std::size_t node,
                 const scenario::DeploymentRecord &record) override
    {
        static_cast<scenario::ClusterPolicy &>(inner).onCompletion(node,
                                                                   record);
    }

    std::vector<Decision> decisions;

  private:
    core::AdriasOrchestrator &inner;
};

scenario::ScenarioConfig
rackConfig()
{
    scenario::ScenarioConfig config;
    config.durationSec = 900;
    config.spawnMinSec = 3;
    config.spawnMaxSec = 10;
    config.maxConcurrent = 16;
    config.seed = 1606;
    // Every prediction inside the window crashes: the guard trips and
    // the orchestrator keeps placing in degraded mode.
    config.faults.seed = 5;
    config.faults.add(
        {fault::FaultKind::PredictorCrash, 300, 450, 1.0, 1.0, ""});
    return config;
}

/** Every other Spark app starts known (the stub ignores signature
 *  contents); the rest, and the LC servers, bootstrap. */
std::size_t
seedSignatures(scenario::SignatureStore &store)
{
    const auto &sparks = workloads::sparkBenchmarks();
    for (std::size_t i = 0; i < sparks.size(); i += 2)
        store.put(sparks[i].name,
                  std::vector<ml::Matrix>(
                      scenario::ScenarioRunner::kWindowBins,
                      ml::Matrix(1, kNumPerfEvents)));
    return store.size();
}

/** Everything one orchestrated run owns, wired like a deployment. */
struct OrchestratedRun
{
    explicit OrchestratedRun(const Topology &topo)
        : config(rackConfig()), predictorFaults(config.faults),
          guard(stub, {}, &predictorFaults),
          seeded(seedSignatures(signatures)),
          orchestrator(guard, signatures, {}), checker(orchestrator),
          engine(topo, config)
    {
    }

    void
    stepUntil(SimTime tick)
    {
        while (engine.now() < tick && !engine.finished())
            engine.stepTick(checker);
    }

    scenario::ScenarioConfig config;
    CongestionStub stub;
    fault::FaultInjector predictorFaults;
    models::GuardedPredictor guard;
    scenario::SignatureStore signatures; // grown by bootstrap
    std::size_t seeded;
    core::AdriasOrchestrator orchestrator;
    RouteChecker checker;
    scenario::ScenarioEngine engine;
};

TEST(RackOrchestrator, GuardedRunFallsBackAndRoutesEveryDecision)
{
    const Topology topo = topologyByName(topologyUnderTest());
    OrchestratedRun run(topo);
    run.stepUntil(run.config.durationSec);
    const scenario::ClusterResult result = run.engine.finishCluster();

    for (const scenario::ScenarioResult &node : result.nodes)
        EXPECT_EQ(node.trace.size(),
                  static_cast<std::size_t>(run.config.durationSec));
    const core::OrchestratorStats stats = run.orchestrator.stats();
    EXPECT_GT(stats.fallbackPlacements, 0u);
    EXPECT_GT(stats.predictionFailures, 0u);
    EXPECT_GT(stats.bootstrapPlacements, 0u);
    EXPECT_GE(stats.breakerTrips, 1u);
    EXPECT_EQ(stats.localPlacements + stats.remotePlacements,
              run.checker.decisions.size());
    EXPECT_GT(run.signatures.size(), run.seeded);

    // Some decisions went remote, and on a wider rack they spread.
    std::size_t remote = 0;
    std::vector<bool> node_used(topo.nodeCount(), false);
    for (const Decision &decision : run.checker.decisions) {
        remote += decision.placement.mode == MemoryMode::Remote;
        node_used[decision.placement.node] = true;
    }
    EXPECT_GT(remote, 0u);
    for (std::size_t n = 0; n < topo.nodeCount(); ++n)
        EXPECT_TRUE(node_used[n]) << "node " << n << " never chosen";
}

TEST(RackOrchestrator, CheckpointMidRunResumesSameDecisions)
{
    const Topology topo = topologyByName(topologyUnderTest());
    constexpr SimTime kSnapshotTick = 400; // inside the crash window

    OrchestratedRun uninterrupted(topo);
    uninterrupted.stepUntil(uninterrupted.config.durationSec);

    OrchestratedRun first(topo);
    first.stepUntil(kSnapshotTick);
    ASSERT_GT(first.signatures.size(), first.seeded); // bootstrapped
    io::BinaryWriter out;
    first.engine.saveState(out);
    first.orchestrator.saveState(out);
    first.guard.saveState(out);
    first.predictorFaults.saveState(out);

    // A fresh process: seeded signatures only, closed breaker.
    OrchestratedRun resumed(topo);
    io::BinaryReader in(out.data());
    ASSERT_TRUE(resumed.engine.restoreState(in).ok());
    ASSERT_TRUE(resumed.orchestrator.restoreState(in).ok());
    ASSERT_TRUE(resumed.guard.restoreState(in).ok());
    ASSERT_TRUE(resumed.predictorFaults.restoreState(in).ok());
    EXPECT_EQ(resumed.signatures.size(), first.signatures.size());
    resumed.stepUntil(resumed.config.durationSec);

    std::vector<Decision> expected;
    for (const Decision &decision : uninterrupted.checker.decisions)
        if (decision.tick >= kSnapshotTick)
            expected.push_back(decision);
    ASSERT_FALSE(expected.empty());
    ASSERT_EQ(resumed.checker.decisions.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i)
        EXPECT_TRUE(resumed.checker.decisions[i] == expected[i])
            << "decision " << i << " at t=" << expected[i].tick;

    const core::OrchestratorStats want = uninterrupted.orchestrator.stats();
    const core::OrchestratorStats got = resumed.orchestrator.stats();
    EXPECT_EQ(got.localPlacements, want.localPlacements);
    EXPECT_EQ(got.remotePlacements, want.remotePlacements);
    EXPECT_EQ(got.bootstrapPlacements, want.bootstrapPlacements);
    EXPECT_EQ(got.fallbackPlacements, want.fallbackPlacements);
    EXPECT_EQ(got.predictionFailures, want.predictionFailures);
    EXPECT_EQ(got.breakerTrips, want.breakerTrips);
    EXPECT_EQ(resumed.signatures.size(), uninterrupted.signatures.size());
}

} // namespace
} // namespace adrias::testbed
