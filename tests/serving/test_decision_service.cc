/**
 * @file
 * DecisionService behavioral tests against a stub predictor: the four
 * decision paths (model / bootstrap / cold / fallback) pinned to the
 * paper's rules and to the inline orchestrator's answers,
 * back-pressure accounting, size-vs-deadline flushes with the
 * exclusive boundary, one model call per class per batch,
 * drain-on-shutdown, a checkpoint/restore round trip that resumes to
 * identical decisions, and restores that refuse corrupt payloads.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/io/binary.hh"
#include "core/orchestrator.hh"
#include "scenario/runner.hh"
#include "serving/decision_service.hh"
#include "testbed/counters.hh"
#include "workloads/spec.hh"

namespace adrias::serving
{
namespace
{

/** Fixed-answer predictor: BE times and LC p99 set per test. */
class StubPredictor : public models::PredictorBase
{
  public:
    double localTime = 10.0;
    double remoteTime = 10.0;
    double lcP99 = 1.0;
    bool isTrained = true;
    bool throwOnPredict = false;

    /** (class, width) of every batched call, in call order. */
    mutable std::vector<std::pair<WorkloadClass, std::size_t>> batchCalls;

    ml::Matrix
    predictSystemState(const telemetry::Watcher &) const override
    {
        return ml::Matrix(1, 1);
    }

    double
    predictPerformance(WorkloadClass cls,
                       const std::vector<ml::Matrix> &,
                       const std::vector<ml::Matrix> &,
                       MemoryMode mode) const override
    {
        if (throwOnPredict)
            throw models::PredictionUnavailable("stub predictor down");
        if (cls == WorkloadClass::BestEffort)
            return mode == MemoryMode::Local ? localTime : remoteTime;
        return lcP99;
    }

    std::vector<double>
    predictPerformanceBatch(
        WorkloadClass cls,
        const std::vector<PerfQuery> &queries) const override
    {
        batchCalls.emplace_back(cls, queries.size());
        return PredictorBase::predictPerformanceBatch(cls, queries);
    }

    bool trained() const override { return isTrained; }
};

/** One warm (non-empty) window per shard. */
EpochSnapshot
warmSnapshot(std::size_t shards, SimTime now = 0)
{
    EpochSnapshot snapshot;
    snapshot.takenAt = now;
    std::vector<ml::Matrix> window(3, ml::Matrix(1, 2));
    snapshot.shardWindows.assign(shards, window);
    return snapshot;
}

PlacementRequest
makeRequest(DeploymentId id, const std::string &app, WorkloadClass cls,
            std::size_t shards, SimTime now, SimTime deadline)
{
    PlacementRequest request;
    request.id = id;
    request.app = app;
    request.cls = cls;
    request.shard = static_cast<std::size_t>(id) % shards;
    request.submitted = now;
    request.deadline = deadline;
    return request;
}

class DecisionServiceTest : public ::testing::Test
{
  protected:
    DecisionServiceTest()
    {
        signatures.put("known-be", {ml::Matrix(1, 2)});
        signatures.put("known-lc", {ml::Matrix(1, 2)});
    }

    DecisionService
    makeService(core::AdriasConfig policy = {},
                DecisionServiceConfig config = {})
    {
        return DecisionService(stub, signatures, policy, config);
    }

    StubPredictor stub;
    scenario::SignatureStore signatures;
};

TEST_F(DecisionServiceTest, ValidatesConfiguration)
{
    DecisionServiceConfig config;
    config.shards = 0;
    EXPECT_THROW(makeService({}, config), std::runtime_error);
    config = {};
    config.queueCapacity = 0;
    EXPECT_THROW(makeService({}, config), std::runtime_error);
    config = {};
    config.batchSize = 0;
    EXPECT_THROW(makeService({}, config), std::runtime_error);

    stub.isTrained = false;
    EXPECT_THROW(makeService(), std::runtime_error);
}

TEST_F(DecisionServiceTest, UnknownAppBootstrapsOnRemote)
{
    DecisionService service = makeService();
    service.beginEpoch(warmSnapshot(service.config().shards));
    ASSERT_TRUE(service.submit(makeRequest(
        1, "never-seen", WorkloadClass::BestEffort,
        service.config().shards, 0, 100)));
    const auto decisions = service.drain(0);
    ASSERT_EQ(decisions.size(), 1u);
    EXPECT_EQ(decisions[0].mode, MemoryMode::Remote);
    EXPECT_EQ(decisions[0].path, DecisionPath::Bootstrap);
    EXPECT_EQ(toString(decisions[0].path), "bootstrap");
    EXPECT_EQ(service.stats().bootstrapDecisions, 1u);
}

TEST_F(DecisionServiceTest, ColdShardPlacesLocal)
{
    DecisionService service = makeService();
    EpochSnapshot snapshot = warmSnapshot(service.config().shards);
    snapshot.shardWindows[1].clear(); // shard 1 has no telemetry yet
    service.beginEpoch(std::move(snapshot));
    ASSERT_TRUE(service.submit(makeRequest(
        1, "known-be", WorkloadClass::BestEffort,
        service.config().shards, 0, 100)));
    const auto decisions = service.drain(0);
    ASSERT_EQ(decisions.size(), 1u);
    EXPECT_EQ(decisions[0].mode, MemoryMode::Local);
    EXPECT_EQ(decisions[0].path, DecisionPath::Cold);
    EXPECT_EQ(service.stats().coldDecisions, 1u);
}

TEST_F(DecisionServiceTest, BestEffortFollowsBetaRule)
{
    core::AdriasConfig policy;
    policy.beta = 0.8;
    // t_local < beta * t_remote -> local.
    stub.localTime = 7.0;
    stub.remoteTime = 10.0;
    {
        DecisionService service = makeService(policy);
        service.beginEpoch(warmSnapshot(service.config().shards));
        ASSERT_TRUE(service.submit(makeRequest(
            1, "known-be", WorkloadClass::BestEffort,
            service.config().shards, 0, 100)));
        const auto decisions = service.drain(0);
        ASSERT_EQ(decisions.size(), 1u);
        EXPECT_EQ(decisions[0].mode, MemoryMode::Local);
        EXPECT_EQ(decisions[0].path, DecisionPath::Model);
    }
    // t_local == beta * t_remote -> NOT strictly better -> remote.
    stub.localTime = 8.0;
    {
        DecisionService service = makeService(policy);
        service.beginEpoch(warmSnapshot(service.config().shards));
        ASSERT_TRUE(service.submit(makeRequest(
            1, "known-be", WorkloadClass::BestEffort,
            service.config().shards, 0, 100)));
        const auto decisions = service.drain(0);
        ASSERT_EQ(decisions.size(), 1u);
        EXPECT_EQ(decisions[0].mode, MemoryMode::Remote);
    }
}

TEST_F(DecisionServiceTest, LatencyCriticalFollowsQosRule)
{
    core::AdriasConfig policy;
    policy.qosP99Ms["known-lc"] = 2.0;
    // p99_remote <= QoS -> remote is safe.
    stub.lcP99 = 2.0;
    {
        DecisionService service = makeService(policy);
        service.beginEpoch(warmSnapshot(service.config().shards));
        ASSERT_TRUE(service.submit(makeRequest(
            1, "known-lc", WorkloadClass::LatencyCritical,
            service.config().shards, 0, 100)));
        const auto decisions = service.drain(0);
        ASSERT_EQ(decisions.size(), 1u);
        EXPECT_EQ(decisions[0].mode, MemoryMode::Remote);
    }
    // p99_remote > QoS -> keep local.
    stub.lcP99 = 2.5;
    {
        DecisionService service = makeService(policy);
        service.beginEpoch(warmSnapshot(service.config().shards));
        ASSERT_TRUE(service.submit(makeRequest(
            1, "known-lc", WorkloadClass::LatencyCritical,
            service.config().shards, 0, 100)));
        const auto decisions = service.drain(0);
        ASSERT_EQ(decisions.size(), 1u);
        EXPECT_EQ(decisions[0].mode, MemoryMode::Local);
    }
}

/**
 * (mode, path) of one inline decision.  The orchestrator reports no
 * path, so it is read off what the decision did: the bootstrap and
 * fallback tallies, else whether the predictor was asked (model) or
 * not (cold).
 */
std::pair<MemoryMode, DecisionPath>
placeInline(core::AdriasOrchestrator &orchestrator,
            const StubPredictor &stub, const workloads::WorkloadSpec &spec,
            const telemetry::Watcher &watcher)
{
    const core::OrchestratorStats before = orchestrator.stats();
    const std::size_t calls = stub.batchCalls.size();
    const MemoryMode mode = orchestrator.place(spec, watcher, 0);
    const core::OrchestratorStats after = orchestrator.stats();
    if (after.bootstrapPlacements > before.bootstrapPlacements)
        return {mode, DecisionPath::Bootstrap};
    if (after.fallbackPlacements > before.fallbackPlacements)
        return {mode, DecisionPath::Fallback};
    return {mode, stub.batchCalls.size() > calls ? DecisionPath::Model
                                                 : DecisionPath::Cold};
}

TEST_F(DecisionServiceTest, ServedMatchesInlineOnEveryPath)
{
    // Served and inline placement run one decision core.  Requests
    // with even ids land on warm shard 0, odd ids on cold shard 1; at
    // b1 and at b32 each must get the (mode, path) the orchestrator
    // gives on the matching one-node set.
    telemetry::Watcher warm(512), cold(512);
    for (int i = 0; i < 150; ++i)
        warm.record(testbed::CounterSample{});
    workloads::WorkloadSpec be = workloads::sparkBenchmark("sort");
    be.name = "known-be";
    workloads::WorkloadSpec lc = workloads::redisSpec();
    lc.name = "known-lc";
    workloads::WorkloadSpec novel_be = be;
    novel_be.name = "never-seen";
    workloads::WorkloadSpec novel_lc = lc;
    novel_lc.name = "never-seen-lc";
    const workloads::WorkloadSpec *specs[] = {&be, &lc, &novel_be,
                                              &novel_lc};

    using Answer = std::pair<MemoryMode, DecisionPath>;
    struct Setting
    {
        double localTime, remoteTime, lcP99;
        bool down;
        Answer warmBe, warmLc;
    };
    core::AdriasConfig policy; // beta 0.8, QoS 1 ms
    const Answer model_local{MemoryMode::Local, DecisionPath::Model};
    const Answer model_remote{MemoryMode::Remote, DecisionPath::Model};
    const Setting settings[] = {
        // BE local (7 < 0.8 * 10), LC within QoS.
        {7.0, 10.0, 1.0, false, model_local, model_remote},
        // BE remote (9 >= 0.8 * 10), LC over QoS.
        {9.0, 10.0, 1.5, false, model_remote, model_local},
        // A degraded batch: the model rows fall back.
        {7.0, 10.0, 1.0, true,
         {policy.degradedBeMode, DecisionPath::Fallback},
         {policy.degradedLcMode, DecisionPath::Fallback}},
    };
    const Answer bootstrap{MemoryMode::Remote, DecisionPath::Bootstrap};
    const Answer cold_local{MemoryMode::Local, DecisionPath::Cold};

    EpochSnapshot snapshot;
    snapshot.shardWindows = {
        warm.binnedWindow(scenario::ScenarioRunner::kWindowSec,
                          scenario::ScenarioRunner::kWindowBins),
        {}};
    for (const Setting &setting : settings) {
        stub.localTime = setting.localTime;
        stub.remoteTime = setting.remoteTime;
        stub.lcP99 = setting.lcP99;
        stub.throwOnPredict = setting.down;

        core::AdriasOrchestrator orchestrator(stub, signatures, policy);
        std::vector<Answer> inline_answers;
        for (DeploymentId id = 0; id < 8; ++id)
            inline_answers.push_back(placeInline(
                orchestrator, stub, *specs[id / 2], id % 2 ? cold : warm));
        const Answer expected[] = {setting.warmBe, cold_local,
                                   setting.warmLc, cold_local,
                                   bootstrap,      bootstrap,
                                   bootstrap,      bootstrap};
        for (DeploymentId id = 0; id < 8; ++id)
            EXPECT_EQ(inline_answers[id], expected[id]) << "id " << id;

        for (std::size_t batch_size : {1u, 32u}) {
            DecisionServiceConfig config;
            config.shards = 2;
            config.batchSize = batch_size;
            DecisionService service = makeService(policy, config);
            service.beginEpoch(snapshot);
            for (DeploymentId id = 0; id < 8; ++id) {
                const workloads::WorkloadSpec &spec = *specs[id / 2];
                ASSERT_TRUE(service.submit(makeRequest(
                    id, spec.name, spec.cls, 2, 0, 100)));
            }
            const auto decisions = service.drain(0);
            ASSERT_EQ(decisions.size(), 8u);
            for (const PlacementDecision &decision : decisions)
                EXPECT_EQ(Answer(decision.mode, decision.path),
                          inline_answers[decision.id])
                    << "id " << decision.id << ", b" << batch_size;
        }
    }
}

TEST_F(DecisionServiceTest, FullQueueBackpressures)
{
    DecisionServiceConfig config;
    config.shards = 1;
    config.queueCapacity = 2;
    DecisionService service = makeService({}, config);
    service.beginEpoch(warmSnapshot(1));
    EXPECT_TRUE(service.submit(
        makeRequest(0, "known-be", WorkloadClass::BestEffort, 1, 0, 100)));
    EXPECT_TRUE(service.submit(
        makeRequest(1, "known-be", WorkloadClass::BestEffort, 1, 0, 100)));
    EXPECT_FALSE(service.submit(
        makeRequest(2, "known-be", WorkloadClass::BestEffort, 1, 0, 100)));
    const DecisionServiceStats stats = service.stats();
    EXPECT_EQ(stats.submitted, 2u);
    EXPECT_EQ(stats.rejectedBackpressure, 1u);
    EXPECT_EQ(service.inflightCount(), 2u);
}

TEST_F(DecisionServiceTest, SizeAndDeadlineFlushesAreDistinguished)
{
    DecisionServiceConfig config;
    config.shards = 1;
    config.batchSize = 3;
    DecisionService service = makeService({}, config);
    service.beginEpoch(warmSnapshot(1));

    // Two requests, deadline 10: no flush until tick 9 (exclusive
    // deadlines: 9 is the last tick that still meets deadline 10).
    for (DeploymentId id : {0, 1})
        ASSERT_TRUE(service.submit(makeRequest(
            id, "known-be", WorkloadClass::BestEffort, 1, 0, 10)));
    EXPECT_TRUE(service.pump(0).empty());
    EXPECT_TRUE(service.pump(8).empty());
    EXPECT_EQ(service.inflightCount(), 2u);
    const auto at_nine = service.pump(9);
    ASSERT_EQ(at_nine.size(), 2u);
    EXPECT_FALSE(at_nine[0].missedDeadline);
    EXPECT_EQ(at_nine[0].latencyTicks, 9);
    EXPECT_EQ(service.stats().deadlineFlushes, 1u);
    EXPECT_EQ(service.stats().fullBatchFlushes, 0u);

    // A full batch flushes immediately, far from any deadline.
    for (DeploymentId id : {2, 3, 4})
        ASSERT_TRUE(service.submit(makeRequest(
            id, "known-be", WorkloadClass::BestEffort, 1, 20, 500)));
    const auto full = service.pump(20);
    ASSERT_EQ(full.size(), 3u);
    EXPECT_EQ(service.stats().fullBatchFlushes, 1u);
    EXPECT_EQ(service.stats().batches, 2u);
}

TEST_F(DecisionServiceTest, DecisionAtDeadlineTickIsAMiss)
{
    DecisionServiceConfig config;
    config.shards = 1;
    DecisionService service = makeService({}, config);
    service.beginEpoch(warmSnapshot(1));
    ASSERT_TRUE(service.submit(makeRequest(
        0, "known-be", WorkloadClass::BestEffort, 1, 0, 10)));
    // Forced through exactly at the deadline tick: that is a miss.
    const auto decisions = service.drain(10);
    ASSERT_EQ(decisions.size(), 1u);
    EXPECT_TRUE(decisions[0].missedDeadline);
    EXPECT_EQ(service.stats().missedDeadlines, 1u);
}

TEST_F(DecisionServiceTest, PredictionFailureDegradesWholeBatch)
{
    stub.throwOnPredict = true;
    core::AdriasConfig policy; // degraded: BE remote, LC local
    DecisionServiceConfig config;
    config.shards = 1;
    DecisionService service = makeService(policy, config);
    service.beginEpoch(warmSnapshot(1));
    ASSERT_TRUE(service.submit(makeRequest(
        0, "known-be", WorkloadClass::BestEffort, 1, 0, 100)));
    ASSERT_TRUE(service.submit(makeRequest(
        1, "known-lc", WorkloadClass::LatencyCritical, 1, 0, 100)));
    ASSERT_TRUE(service.submit(makeRequest(
        2, "never-seen", WorkloadClass::BestEffort, 1, 0, 100)));
    const auto decisions = service.drain(0);
    ASSERT_EQ(decisions.size(), 3u);
    EXPECT_EQ(decisions[0].path, DecisionPath::Fallback);
    EXPECT_EQ(decisions[0].mode, policy.degradedBeMode);
    EXPECT_EQ(decisions[1].path, DecisionPath::Fallback);
    EXPECT_EQ(decisions[1].mode, policy.degradedLcMode);
    // Rule-decided requests never need the model: unaffected.
    EXPECT_EQ(decisions[2].path, DecisionPath::Bootstrap);
    EXPECT_EQ(service.stats().fallbackDecisions, 2u);
}

TEST_F(DecisionServiceTest, OneModelCallPerClassPerBatch)
{
    DecisionServiceConfig config;
    config.shards = 1;
    config.batchSize = 32;
    DecisionService service = makeService({}, config);
    service.beginEpoch(warmSnapshot(1));
    // One full b32 batch, interleaved: 20 BE requests (two model rows
    // each, 40 rows — wider than the batch) and 12 LC requests.
    for (DeploymentId id = 0; id < 32; ++id) {
        const bool be = id % 8 < 5;
        ASSERT_TRUE(service.submit(makeRequest(
            id, be ? "known-be" : "known-lc",
            be ? WorkloadClass::BestEffort
               : WorkloadClass::LatencyCritical,
            1, 0, 100)));
    }
    const auto decisions = service.drain(0);
    ASSERT_EQ(decisions.size(), 32u);
    for (const PlacementDecision &decision : decisions)
        EXPECT_EQ(decision.path, DecisionPath::Model);
    EXPECT_EQ(service.stats().batches, 1u);

    // Each class is one call at its natural width: no chunks, no pads.
    const std::vector<std::pair<WorkloadClass, std::size_t>> expected{
        {WorkloadClass::BestEffort, 40u},
        {WorkloadClass::LatencyCritical, 12u}};
    EXPECT_EQ(stub.batchCalls, expected);
    EXPECT_EQ(service.stats().paddedRows, 0u);
}

TEST_F(DecisionServiceTest, DrainDecidesEverythingInFlight)
{
    DecisionServiceConfig config;
    config.shards = 3;
    config.batchSize = 8;
    DecisionService service = makeService({}, config);
    service.beginEpoch(warmSnapshot(3));
    for (DeploymentId id = 0; id < 10; ++id)
        ASSERT_TRUE(service.submit(makeRequest(
            id, "known-be", WorkloadClass::BestEffort, 3, 0, 1000)));
    EXPECT_EQ(service.inflightCount(), 10u);
    const auto decisions = service.drain(1);
    EXPECT_EQ(decisions.size(), 10u);
    EXPECT_EQ(service.inflightCount(), 0u);
    EXPECT_EQ(service.stats().decisions, 10u);
}

TEST_F(DecisionServiceTest, EpochStampsDecisionsAndAdvances)
{
    DecisionServiceConfig config;
    config.shards = 1;
    DecisionService service = makeService({}, config);
    service.beginEpoch(warmSnapshot(1));
    ASSERT_TRUE(service.submit(makeRequest(
        0, "known-be", WorkloadClass::BestEffort, 1, 0, 100)));
    const auto first = service.drain(0);
    service.beginEpoch(warmSnapshot(1, 50));
    ASSERT_TRUE(service.submit(makeRequest(
        1, "known-be", WorkloadClass::BestEffort, 1, 50, 150)));
    const auto second = service.drain(50);
    ASSERT_EQ(first.size(), 1u);
    ASSERT_EQ(second.size(), 1u);
    EXPECT_EQ(first[0].epoch, 1u);
    EXPECT_EQ(second[0].epoch, 2u);
    EXPECT_EQ(service.stats().epochs, 2u);
}

TEST_F(DecisionServiceTest, CheckpointRestoreResumesIdenticalDecisions)
{
    core::AdriasConfig policy;
    stub.localTime = 7.0;
    stub.remoteTime = 10.0;
    DecisionServiceConfig config;
    config.shards = 2;
    config.batchSize = 8;

    const auto feed = [this, &config](DecisionService &service) {
        service.beginEpoch(warmSnapshot(config.shards));
        // Decided history, then a partial in-flight batch plus
        // still-queued requests — all three stages populated.
        for (DeploymentId id = 0; id < 3; ++id)
            ASSERT_TRUE(service.submit(makeRequest(
                id, "known-be", WorkloadClass::BestEffort,
                config.shards, 0, 50)));
        (void)service.drain(5);
        for (DeploymentId id = 3; id < 6; ++id)
            ASSERT_TRUE(service.submit(makeRequest(
                id, "known-lc", WorkloadClass::LatencyCritical,
                config.shards, 6, 60)));
        (void)service.pump(6); // batched but not due: stays in flight
        for (DeploymentId id = 6; id < 8; ++id)
            ASSERT_TRUE(service.submit(makeRequest(
                id, "never-seen", WorkloadClass::BestEffort,
                config.shards, 7, 70)));
    };

    DecisionService original(stub, signatures, policy, config);
    feed(original);
    io::BinaryWriter writer;
    original.saveState(writer);

    DecisionService restored(stub, signatures, policy, config);
    io::BinaryReader reader(writer.data());
    ASSERT_TRUE(restored.restoreState(reader).ok());

    EXPECT_EQ(restored.inflightCount(), original.inflightCount());
    // Both services must finish the run identically.
    const auto rest_of_original = original.drain(20);
    const auto rest_of_restored = restored.drain(20);
    ASSERT_EQ(rest_of_original.size(), rest_of_restored.size());
    for (std::size_t i = 0; i < rest_of_original.size(); ++i) {
        EXPECT_EQ(rest_of_original[i].id, rest_of_restored[i].id);
        EXPECT_EQ(rest_of_original[i].mode, rest_of_restored[i].mode);
        EXPECT_EQ(rest_of_original[i].path, rest_of_restored[i].path);
        EXPECT_EQ(rest_of_original[i].epoch, rest_of_restored[i].epoch);
        EXPECT_EQ(rest_of_original[i].batchSeq,
                  rest_of_restored[i].batchSeq);
        EXPECT_EQ(rest_of_original[i].latencyTicks,
                  rest_of_restored[i].latencyTicks);
    }
    const DecisionServiceStats a = original.stats();
    const DecisionServiceStats b = restored.stats();
    EXPECT_EQ(a.decisions, b.decisions);
    EXPECT_EQ(a.batches, b.batches);
    EXPECT_EQ(a.missedDeadlines, b.missedDeadlines);
}

TEST_F(DecisionServiceTest, GoldenDecisionSequence)
{
    // Pinned end-to-end serving trace: 7 requests over 2 shards with a
    // b3 assembler produce exactly this batch composition (shard-order
    // drain: even ids then odd ids) and these decisions.  Any change
    // to drain order, batching or the decision rules shows up here.
    core::AdriasConfig policy;
    policy.beta = 0.8;
    stub.localTime = 7.0;  // 7 < 0.8 * 10: BE goes local
    stub.remoteTime = 10.0;
    stub.lcP99 = 1.0; // == default QoS 1.0: remote is (just) safe
    DecisionServiceConfig config;
    config.shards = 2;
    config.batchSize = 3;
    DecisionService service = makeService(policy, config);
    service.beginEpoch(warmSnapshot(2));

    const char *apps[] = {"known-be", "known-lc", "never-seen"};
    const WorkloadClass classes[] = {WorkloadClass::BestEffort,
                                     WorkloadClass::LatencyCritical,
                                     WorkloadClass::BestEffort};
    for (DeploymentId id = 0; id < 7; ++id)
        ASSERT_TRUE(service.submit(makeRequest(id, apps[id % 3],
                                               classes[id % 3], 2, 0,
                                               20)));

    std::vector<PlacementDecision> decisions = service.pump(0);
    ASSERT_EQ(decisions.size(), 6u); // two full b3 batches
    const std::vector<PlacementDecision> tail = service.pump(19);
    ASSERT_EQ(tail.size(), 1u); // deadline-flushed remainder
    decisions.insert(decisions.end(), tail.begin(), tail.end());

    struct Expected
    {
        DeploymentId id;
        MemoryMode mode;
        DecisionPath path;
        std::uint64_t batchSeq;
    };
    const Expected golden[] = {
        {0, MemoryMode::Local, DecisionPath::Model, 1},
        {2, MemoryMode::Remote, DecisionPath::Bootstrap, 1},
        {4, MemoryMode::Remote, DecisionPath::Model, 1},
        {6, MemoryMode::Local, DecisionPath::Model, 2},
        {1, MemoryMode::Remote, DecisionPath::Model, 2},
        {3, MemoryMode::Local, DecisionPath::Model, 2},
        {5, MemoryMode::Remote, DecisionPath::Bootstrap, 3},
    };
    ASSERT_EQ(decisions.size(), std::size(golden));
    for (std::size_t i = 0; i < std::size(golden); ++i) {
        EXPECT_EQ(decisions[i].id, golden[i].id) << "row " << i;
        EXPECT_EQ(decisions[i].mode, golden[i].mode) << "row " << i;
        EXPECT_EQ(decisions[i].path, golden[i].path) << "row " << i;
        EXPECT_EQ(decisions[i].batchSeq, golden[i].batchSeq)
            << "row " << i;
        EXPECT_EQ(decisions[i].epoch, 1u);
    }
    EXPECT_EQ(service.stats().fullBatchFlushes, 2u);
    EXPECT_EQ(service.stats().deadlineFlushes, 1u);
}

TEST_F(DecisionServiceTest, RestoreRejectsShardMismatch)
{
    DecisionServiceConfig config;
    config.shards = 2;
    DecisionService original(stub, signatures, {}, config);
    original.beginEpoch(warmSnapshot(2));
    io::BinaryWriter writer;
    original.saveState(writer);

    DecisionServiceConfig other = config;
    other.shards = 3;
    DecisionService mismatched(stub, signatures, {}, other);
    io::BinaryReader reader(writer.data());
    EXPECT_FALSE(mismatched.restoreState(reader).ok());
}

/** A decision-service-v4 payload up to its first shard window: zero
 *  cursors, counters and tallies, and the head of a `shards`-shard
 *  epoch snapshot. */
io::BinaryWriter
payloadHead(std::size_t shards)
{
    io::BinaryWriter out;
    out.writeString("decision-service-v4");
    for (int i = 0; i < 5 + 13; ++i)
        out.writeU64(0); // cursors, producer counters, tallies
    out.writeU64(1);      // snapshot epoch
    out.writeI64(0);      // takenAt
    out.writeU64(shards); // shard windows
    return out;
}

void
writeRequest(io::BinaryWriter &out, std::uint8_t cls, std::uint64_t shard)
{
    out.writeU64(0); // id
    out.writeString("known-be");
    out.writeU8(cls);
    out.writeU64(shard);
    out.writeI64(0);  // submitted
    out.writeI64(10); // deadline
}

TEST_F(DecisionServiceTest,
       RestoreRejectsOversizedCountsAndOutOfRangeRequests)
{
    DecisionServiceConfig config;
    config.shards = 2;
    const auto restore = [&](const io::BinaryWriter &payload) {
        DecisionService service = makeService({}, config);
        io::BinaryReader reader(payload.data());
        return service.restoreState(reader);
    };
    constexpr std::uint64_t kHuge = std::uint64_t{1} << 62;

    // A window step claiming 2^62 values, and a window claiming 2^62
    // steps: lengths the payload cannot hold.
    io::BinaryWriter wide = payloadHead(2);
    wide.writeU64(1);     // steps
    wide.writeU64(1);     // rows
    wide.writeU64(kHuge); // columns
    wide.writeU64(kHuge); // values
    io::BinaryWriter deep = payloadHead(2);
    deep.writeU64(kHuge); // steps
    for (const io::BinaryWriter *payload : {&wide, &deep}) {
        const Result<void> restored = restore(*payload);
        ASSERT_FALSE(restored.ok());
        EXPECT_EQ(restored.error().code, ErrorCode::Truncated);
    }

    // An in-flight request on shard 5 of 2, and a queued trasher.
    io::BinaryWriter far_shard = payloadHead(2);
    far_shard.writeU64(0); // empty windows
    far_shard.writeU64(0);
    far_shard.writeU64(1); // in flight
    writeRequest(far_shard,
                 static_cast<std::uint8_t>(WorkloadClass::BestEffort), 5);
    far_shard.writeU64(2); // queues
    far_shard.writeU64(0);
    far_shard.writeU64(0);
    io::BinaryWriter trasher = payloadHead(2);
    trasher.writeU64(0);
    trasher.writeU64(0);
    trasher.writeU64(0); // in flight
    trasher.writeU64(2); // queues
    trasher.writeU64(1);
    writeRequest(trasher,
                 static_cast<std::uint8_t>(WorkloadClass::Interference), 0);
    trasher.writeU64(0);
    for (const io::BinaryWriter *payload : {&far_shard, &trasher}) {
        const Result<void> restored = restore(*payload);
        ASSERT_FALSE(restored.ok());
        EXPECT_EQ(restored.error().code, ErrorCode::BadNumber);
    }
}

TEST_F(DecisionServiceTest, RestoreRejectsOldFormatPayload)
{
    // v1, the layout before the format marker: cursors, tallies, every
    // latency sample as doubles, then an empty two-shard snapshot and
    // empty in-flight and queue stages.
    io::BinaryWriter old;
    old.writeU64(3); // nextSeq
    old.writeU64(3); // headSeq
    for (int i = 0; i < 3 + 13; ++i)
        old.writeU64(i == 0 ? 1 : 0); // batchCounter, counters, tallies
    old.writeF64Vector({0.0, 2.0, 5.0});
    old.writeU64(1);  // snapshot epoch
    old.writeI64(0);  // takenAt
    old.writeU64(2);  // shard windows
    old.writeU64(0);
    old.writeU64(0);
    old.writeU64(0);  // in-flight
    old.writeU64(2);  // queues
    old.writeU64(0);
    old.writeU64(0);

    // v2: marked, one window step of bare columns per shard.
    io::BinaryWriter v2;
    v2.writeString("decision-service-v2");
    for (int i = 0; i < 5 + 13; ++i)
        v2.writeU64(0); // cursors, producer counters, tallies
    v2.writeU64(0);     // latency counts
    v2.writeU64(1);     // snapshot epoch
    v2.writeI64(0);     // takenAt
    v2.writeU64(2);     // shard windows
    for (int shard = 0; shard < 2; ++shard) {
        v2.writeU64(1); // steps
        v2.writeU64(1); // columns
        v2.writeF64(0.5);
    }
    v2.writeU64(0); // in-flight
    v2.writeU64(2); // queues
    v2.writeU64(0);
    v2.writeU64(0);

    // v3: v2 with matrix-sequence windows; still carries the per-tick
    // latency counts.
    io::BinaryWriter v3;
    v3.writeString("decision-service-v3");
    for (int i = 0; i < 5 + 13; ++i)
        v3.writeU64(0); // cursors, producer counters, tallies
    v3.writeU64(0);     // latency counts
    v3.writeU64(1);     // snapshot epoch
    v3.writeI64(0);     // takenAt
    v3.writeU64(2);     // shard windows
    v3.writeU64(0);     // empty sequences
    v3.writeU64(0);
    v3.writeU64(0); // in-flight
    v3.writeU64(2); // queues
    v3.writeU64(0);
    v3.writeU64(0);

    DecisionServiceConfig config;
    config.shards = 2;
    for (const io::BinaryWriter *payload : {&old, &v2, &v3}) {
        DecisionService service = makeService({}, config);
        io::BinaryReader reader(payload->data());
        const Result<void> restored = service.restoreState(reader);
        ASSERT_FALSE(restored.ok());
        EXPECT_EQ(restored.error().code, ErrorCode::BadHeader);
        EXPECT_NE(restored.error().message.find("decision-service-v4"),
                  std::string::npos)
            << restored.error().message;
    }
}

} // namespace
} // namespace adrias::serving
