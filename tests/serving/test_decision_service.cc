/**
 * @file
 * DecisionService behavioral tests against a stub predictor: the four
 * decision paths (model / bootstrap / cold / fallback) pinned to the
 * paper's rules, back-pressure accounting, size-vs-deadline flushes
 * with the exclusive boundary, one model call per class per batch,
 * drain-on-shutdown and a checkpoint/restore round trip that resumes to identical decisions.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/io/binary.hh"
#include "serving/decision_service.hh"

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
    EXPECT_DOUBLE_EQ(original.p99LatencyTicks(),
                     restored.p99LatencyTicks());
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

} // namespace
} // namespace adrias::serving
