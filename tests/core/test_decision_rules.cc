/**
 * @file
 * Exact unit tests of the orchestration decision rules (paper §V-C)
 * using a stub predictor with controlled outputs:
 *
 *   BE:  local  iff  t̂_local < β · t̂_remote
 *   LC:  remote iff  p̂99_remote ≤ QoS
 */

#include <gtest/gtest.h>

#include "core/adrias.hh"

namespace adrias::core
{
namespace
{

/** Predictor stub returning fixed per-mode values. */
class StubPredictor : public models::PredictorBase
{
  public:
    double localValue = 100.0;
    double remoteValue = 120.0;

    ml::Matrix
    predictSystemState(const telemetry::Watcher &) const override
    {
        return ml::Matrix(1, testbed::kNumPerfEvents);
    }

    double
    predictPerformance(WorkloadClass, const std::vector<ml::Matrix> &,
                       const std::vector<ml::Matrix> &,
                       MemoryMode mode) const override
    {
        return mode == MemoryMode::Local ? localValue : remoteValue;
    }

    bool trained() const override { return true; }
};

/** Fixture with warm telemetry and a known signature. */
class DecisionRuleTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        signatures.put("sort",
                       std::vector<ml::Matrix>(
                           scenario::ScenarioRunner::kWindowBins,
                           ml::Matrix(1, testbed::kNumPerfEvents)));
        signatures.put("redis",
                       std::vector<ml::Matrix>(
                           scenario::ScenarioRunner::kWindowBins,
                           ml::Matrix(1, testbed::kNumPerfEvents)));
        testbed::CounterSample sample{};
        for (int i = 0; i < 150; ++i)
            watcher.record(sample);
    }

    StubPredictor stub;
    scenario::SignatureStore signatures;
    telemetry::Watcher watcher{512};
};

TEST_F(DecisionRuleTest, BeRuleExactBoundary)
{
    // beta = 0.8: local iff t_local < 0.8 * t_remote.
    AdriasConfig config;
    config.beta = 0.8;
    const auto &sort = workloads::sparkBenchmark("sort");

    stub.localValue = 79.9;
    stub.remoteValue = 100.0;
    {
        AdriasOrchestrator orchestrator(stub, signatures, config);
        EXPECT_EQ(orchestrator.place(sort, watcher, 0),
                  MemoryMode::Local);
    }

    stub.localValue = 80.1; // just over beta * remote -> remote
    {
        AdriasOrchestrator orchestrator(stub, signatures, config);
        EXPECT_EQ(orchestrator.place(sort, watcher, 0),
                  MemoryMode::Remote);
    }

    stub.localValue = 80.0; // equality is NOT strictly less -> remote
    {
        AdriasOrchestrator orchestrator(stub, signatures, config);
        EXPECT_EQ(orchestrator.place(sort, watcher, 0),
                  MemoryMode::Remote);
    }
}

TEST_F(DecisionRuleTest, BeBetaOneReducesToFasterMode)
{
    AdriasConfig config;
    config.beta = 1.0;
    const auto &sort = workloads::sparkBenchmark("sort");

    stub.localValue = 99.0;
    stub.remoteValue = 100.0;
    AdriasOrchestrator faster_local(stub, signatures, config);
    EXPECT_EQ(faster_local.place(sort, watcher, 0), MemoryMode::Local);

    stub.localValue = 101.0;
    AdriasOrchestrator faster_remote(stub, signatures, config);
    EXPECT_EQ(faster_remote.place(sort, watcher, 0),
              MemoryMode::Remote);
}

TEST_F(DecisionRuleTest, LcRuleExactBoundary)
{
    // remote iff p99_remote <= QoS (inclusive).
    AdriasConfig config;
    config.defaultQosP99Ms = 2.0;
    const auto &redis = workloads::redisSpec();

    stub.remoteValue = 2.0;
    {
        AdriasOrchestrator orchestrator(stub, signatures, config);
        EXPECT_EQ(orchestrator.place(redis, watcher, 0),
                  MemoryMode::Remote);
    }

    stub.remoteValue = 2.01;
    {
        AdriasOrchestrator orchestrator(stub, signatures, config);
        EXPECT_EQ(orchestrator.place(redis, watcher, 0),
                  MemoryMode::Local);
    }
}

TEST_F(DecisionRuleTest, LcUsesPerAppQos)
{
    AdriasConfig config;
    config.defaultQosP99Ms = 1.0;
    config.qosP99Ms["redis"] = 5.0;
    stub.remoteValue = 3.0; // above default, below redis override
    AdriasOrchestrator orchestrator(stub, signatures, config);
    EXPECT_EQ(orchestrator.place(workloads::redisSpec(), watcher, 0),
              MemoryMode::Remote);
}

TEST_F(DecisionRuleTest, StatsTrackDecisions)
{
    AdriasConfig config;
    config.beta = 0.8;
    stub.localValue = 50.0;
    stub.remoteValue = 100.0;
    AdriasOrchestrator orchestrator(stub, signatures, config);
    const auto &sort = workloads::sparkBenchmark("sort");
    orchestrator.place(sort, watcher, 0); // local
    stub.localValue = 200.0;
    orchestrator.place(sort, watcher, 1); // remote
    EXPECT_EQ(orchestrator.stats().localPlacements, 1u);
    EXPECT_EQ(orchestrator.stats().remotePlacements, 1u);
}

TEST_F(DecisionRuleTest, TrasherPlacementPanics)
{
    AdriasOrchestrator orchestrator(stub, signatures, {});
    // Trashers have signatures? They never do, so they'd bootstrap;
    // force the panic path by registering one.
    signatures.put("ibench-cpu",
                   std::vector<ml::Matrix>(
                       scenario::ScenarioRunner::kWindowBins,
                       ml::Matrix(1, testbed::kNumPerfEvents)));
    EXPECT_THROW(
        orchestrator.place(
            workloads::ibenchSpec(workloads::IBenchKind::Cpu), watcher,
            0),
        std::logic_error);
}

// --- cluster decision rules --------------------------------------------

/** Stub with per-node values keyed by congestion in the watcher. */
class PerNodeStub : public models::PredictorBase
{
  public:
    // predictPerformance sees only the history matrices; encode the
    // node id in the first history value.
    mutable std::map<int, std::pair<double, double>> valuesByNode;

    ml::Matrix
    predictSystemState(const telemetry::Watcher &) const override
    {
        return ml::Matrix(1, testbed::kNumPerfEvents);
    }

    double
    predictPerformance(WorkloadClass,
                       const std::vector<ml::Matrix> &history,
                       const std::vector<ml::Matrix> &,
                       MemoryMode mode) const override
    {
        const int node =
            static_cast<int>(history.front().at(0, 0) + 0.5);
        const auto [local, remote] = valuesByNode.at(node);
        return mode == MemoryMode::Local ? local : remote;
    }

    bool trained() const override { return true; }
};

TEST(ClusterDecisionRules, PicksBestNodeAndBreaksIsoTiesByLoad)
{
    PerNodeStub stub;
    scenario::SignatureStore signatures;
    signatures.put("sort",
                   std::vector<ml::Matrix>(
                       scenario::ScenarioRunner::kWindowBins,
                       ml::Matrix(1, testbed::kNumPerfEvents)));

    // Watchers whose first counter encodes the node id.
    telemetry::Watcher w0(512), w1(512);
    testbed::CounterSample s0{}, s1{};
    s0[0] = 0.0;
    s1[0] = 1.0;
    for (int i = 0; i < 150; ++i) {
        w0.record(s0);
        w1.record(s1);
    }

    AdriasConfig config;
    config.beta = 0.8;
    AdriasOrchestrator orchestrator(stub, signatures, config);
    const auto &sort = workloads::sparkBenchmark("sort");

    // Node 1 clearly faster: chosen regardless of load.
    stub.valuesByNode[0] = {100.0, 200.0};
    stub.valuesByNode[1] = {60.0, 200.0};
    std::vector<scenario::NodeView> nodes{{&w0, 1}, {&w1, 9}};
    auto placement = orchestrator.place(sort, nodes, 0);
    EXPECT_EQ(placement.node, 1u);
    EXPECT_EQ(placement.mode, MemoryMode::Local);

    // Iso predictions (within 5%): the less-loaded node wins.
    stub.valuesByNode[0] = {100.0, 200.0};
    stub.valuesByNode[1] = {101.0, 200.0};
    nodes[0].running = 9;
    nodes[1].running = 1;
    placement = orchestrator.place(sort, nodes, 0);
    EXPECT_EQ(placement.node, 1u);
}

TEST(ClusterDecisionRules, LcPrefersQosMeetingRemote)
{
    PerNodeStub stub;
    scenario::SignatureStore signatures;
    signatures.put("redis",
                   std::vector<ml::Matrix>(
                       scenario::ScenarioRunner::kWindowBins,
                       ml::Matrix(1, testbed::kNumPerfEvents)));

    telemetry::Watcher w0(512), w1(512);
    testbed::CounterSample s0{}, s1{};
    s0[0] = 0.0;
    s1[0] = 1.0;
    for (int i = 0; i < 150; ++i) {
        w0.record(s0);
        w1.record(s1);
    }

    AdriasConfig config;
    config.defaultQosP99Ms = 2.0;
    AdriasOrchestrator orchestrator(stub, signatures, config);
    std::vector<scenario::NodeView> nodes{{&w0, 3}, {&w1, 3}};

    // Only node 1's remote meets QoS.
    stub.valuesByNode[0] = {1.0, 5.0};
    stub.valuesByNode[1] = {1.0, 1.5};
    auto placement =
        orchestrator.place(workloads::redisSpec(), nodes, 0);
    EXPECT_EQ(placement.node, 1u);
    EXPECT_EQ(placement.mode, MemoryMode::Remote);

    // No remote meets QoS: best local.
    stub.valuesByNode[0] = {0.8, 5.0};
    stub.valuesByNode[1] = {1.2, 5.0};
    placement = orchestrator.place(workloads::redisSpec(), nodes, 0);
    EXPECT_EQ(placement.node, 0u);
    EXPECT_EQ(placement.mode, MemoryMode::Local);
}

} // namespace
} // namespace adrias::core
