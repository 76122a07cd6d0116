/** @file Tests for the system-state and performance models. */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "common/threadpool.hh"
#include "models/batching.hh"
#include "models/performance.hh"
#include "models/predictor.hh"
#include "models/system_state.hh"
#include "scenario/dataset.hh"
#include "stats/regression_metrics.hh"

namespace adrias::models
{
namespace
{

using scenario::DatasetBuilder;
using scenario::PerformanceSample;
using scenario::RandomPlacement;
using scenario::ScenarioConfig;
using scenario::ScenarioResult;
using scenario::ScenarioRunner;
using scenario::SignatureStore;
using scenario::SystemStateSample;

/** Small but real dataset shared across model tests. */
class ModelsTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        std::vector<ScenarioResult> results;
        for (std::uint64_t seed : {61, 62, 63, 64, 65}) {
            ScenarioConfig config;
            config.durationSec = 2400;
            config.spawnMinSec = 5;
            config.spawnMaxSec = 25;
            config.seed = seed;
            ScenarioRunner runner(config);
            RandomPlacement policy(seed + 10);
            results.push_back(runner.run(policy));
        }
        signatures = new SignatureStore;
        scenario::collectAllSignatures(*signatures);

        auto state = DatasetBuilder::systemState(results, 5);
        auto [state_train_, state_test_] =
            scenario::splitDataset(std::move(state), 0.6, 5);
        stateTrain = new std::vector<SystemStateSample>(
            std::move(state_train_));
        stateTest =
            new std::vector<SystemStateSample>(std::move(state_test_));

        auto be = DatasetBuilder::performance(results, *signatures,
                                              WorkloadClass::BestEffort);
        auto [be_train_, be_test_] =
            scenario::splitDataset(std::move(be), 0.6, 5);
        beTrain =
            new std::vector<PerformanceSample>(std::move(be_train_));
        beTest = new std::vector<PerformanceSample>(std::move(be_test_));

        config = new ModelConfig;
        config->epochs = 40;
        config->hidden = 24;
        config->headWidth = 32;

        trainedState = new SystemStateModel(*config);
        trainedState->train(*stateTrain);
    }

    static void
    TearDownTestSuite()
    {
        delete signatures;
        delete stateTrain;
        delete stateTest;
        delete beTrain;
        delete beTest;
        delete trainedState;
        delete config;
    }

    static SignatureStore *signatures;
    static std::vector<SystemStateSample> *stateTrain;
    static std::vector<SystemStateSample> *stateTest;
    static std::vector<PerformanceSample> *beTrain;
    static std::vector<PerformanceSample> *beTest;
    static SystemStateModel *trainedState;
    static ModelConfig *config;
};

SignatureStore *ModelsTest::signatures = nullptr;
std::vector<SystemStateSample> *ModelsTest::stateTrain = nullptr;
std::vector<SystemStateSample> *ModelsTest::stateTest = nullptr;
std::vector<PerformanceSample> *ModelsTest::beTrain = nullptr;
std::vector<PerformanceSample> *ModelsTest::beTest = nullptr;
SystemStateModel *ModelsTest::trainedState = nullptr;
ModelConfig *ModelsTest::config = nullptr;

TEST(Batching, StackSequencesShape)
{
    std::vector<ml::Matrix> a(3, ml::Matrix(1, 2));
    std::vector<ml::Matrix> b(3, ml::Matrix(1, 2));
    a[1].at(0, 1) = 5.0;
    const auto batch = stackSequences({&a, &b});
    ASSERT_EQ(batch.size(), 3u);
    EXPECT_EQ(batch[0].rows(), 2u);
    EXPECT_EQ(batch[0].cols(), 2u);
    EXPECT_DOUBLE_EQ(batch[1].at(0, 1), 5.0);
    EXPECT_DOUBLE_EQ(batch[1].at(1, 1), 0.0);
}

TEST(Batching, RaggedBatchPanics)
{
    std::vector<ml::Matrix> a(3, ml::Matrix(1, 2));
    std::vector<ml::Matrix> b(2, ml::Matrix(1, 2));
    EXPECT_THROW(stackSequences({&a, &b}), std::logic_error);
    EXPECT_THROW(stackSequences({}), std::logic_error);
}

TEST(Batching, RaggedDetectionIsDeterministicAcrossThreadCounts)
{
    // Regression: validation used to happen inside the parallel fill,
    // so which ragged row got reported depended on chunk scheduling —
    // and an empty later sequence could be dereferenced before its
    // length was ever checked.  Shapes are now validated serially up
    // front: the LOWEST offending row is reported, identically under
    // any ADRIAS_THREADS.
    std::vector<ml::Matrix> good(3, ml::Matrix(1, 2));
    std::vector<ml::Matrix> short_a(2, ml::Matrix(1, 2));
    std::vector<ml::Matrix> empty;
    std::vector<ml::Matrix> short_b(1, ml::Matrix(1, 2));
    const std::vector<const std::vector<ml::Matrix> *> batch{
        &good, &good, &short_a, &empty, &short_b};

    std::vector<std::string> messages;
    for (unsigned threads : {1u, 2u, 0u}) { // 0 = hardware default
        auto capture = [&batch, &messages] {
            try {
                (void)stackSequences(batch);
                FAIL() << "ragged batch must panic";
            } catch (const std::logic_error &err) {
                messages.emplace_back(err.what());
            }
        };
        if (threads == 0) {
            capture();
        } else {
            ScopedThreadOverride override_(threads);
            capture();
        }
    }
    ASSERT_EQ(messages.size(), 3u);
    // Row 2 is the first ragged one; rows 3 (empty!) and 4 must not
    // win the report even when a chunk touches them first.
    EXPECT_NE(messages[0].find("row 2"), std::string::npos)
        << messages[0];
    EXPECT_EQ(messages[0], messages[1]);
    EXPECT_EQ(messages[0], messages[2]);
}

TEST(Batching, EmptySequenceInBatchPanicsCleanly)
{
    // An empty sequence after valid ones must be caught by the length
    // check, never reach the element loop.
    std::vector<ml::Matrix> a(2, ml::Matrix(1, 3));
    std::vector<ml::Matrix> empty;
    EXPECT_THROW(stackSequences({&a, &empty}), std::logic_error);
    EXPECT_THROW(stackSequences({&empty, &a}), std::logic_error);
}

TEST(Batching, StackRows)
{
    ml::Matrix a(1, 3, {1, 2, 3});
    ml::Matrix b(1, 3, {4, 5, 6});
    const ml::Matrix out = stackRows({&a, &b});
    EXPECT_EQ(out.rows(), 2u);
    EXPECT_DOUBLE_EQ(out.at(1, 2), 6.0);
}

TEST(FutureKindNames, AreStable)
{
    EXPECT_EQ(toString(FutureKind::None), "None");
    EXPECT_EQ(toString(FutureKind::ActualWindow), "120");
    EXPECT_EQ(toString(FutureKind::ActualExec), "exec");
    EXPECT_EQ(toString(FutureKind::Predicted), "S^");
}

TEST_F(ModelsTest, SystemStateModelRejectsMisuse)
{
    SystemStateModel untrained(*config);
    EXPECT_FALSE(untrained.trained());
    EXPECT_THROW(untrained.predict((*stateTest)[0].history),
                 std::runtime_error);
    EXPECT_THROW(untrained.train({}), std::runtime_error);
}

TEST_F(ModelsTest, SystemStateModelFitsHeldOutData)
{
    // Table I reports R² >= 0.96 per event; our smaller model on a
    // smaller dataset must still achieve strong fits.
    const auto eval = trainedState->evaluate(*stateTest);
    ASSERT_EQ(eval.r2PerEvent.size(), testbed::kNumPerfEvents);
    EXPECT_GT(eval.r2Average, 0.80);
    for (std::size_t e = 0; e < eval.r2PerEvent.size(); ++e)
        EXPECT_GT(eval.r2PerEvent[e], 0.5)
            << perfEventName(testbed::allPerfEvents()[e]);
}

TEST_F(ModelsTest, SystemStatePredictionShapeAndUnits)
{
    const ml::Matrix out = trainedState->predict((*stateTest)[0].history);
    EXPECT_EQ(out.rows(), 1u);
    EXPECT_EQ(out.cols(), testbed::kNumPerfEvents);
    // Channel latency lives in [350, 900] cycles; prediction must be
    // in the right ballpark (original units, not scaled ones).
    const double lat =
        out.at(0, static_cast<std::size_t>(
                      testbed::PerfEvent::ChannelLat));
    EXPECT_GT(lat, 100.0);
    EXPECT_LT(lat, 1500.0);
}

TEST_F(ModelsTest, PerformanceModelTrainsAndPredicts)
{
    PerformanceModel model(FutureKind::ActualWindow, *config);
    EXPECT_FALSE(model.trained());
    model.train(*beTrain);
    EXPECT_TRUE(model.trained());

    const auto &sample = (*beTest)[0];
    const double pred = model.predict(sample.history, sample.signature,
                                      sample.mode, sample.futureWindow);
    EXPECT_GT(pred, 0.0);
    EXPECT_LT(pred, 3600.0);
}

TEST_F(ModelsTest, PerformanceModelBeatsMeanPredictor)
{
    PerformanceModel model(FutureKind::ActualWindow, *config);
    model.train(*beTrain);
    const auto eval = model.evaluate(*beTest);
    EXPECT_GT(eval.r2, 0.5); // far above the mean predictor's 0
    EXPECT_GT(eval.mae, 0.0);
    EXPECT_FALSE(eval.maePerApp.empty());
}

TEST_F(ModelsTest, PerformanceModelDiscriminatesModes)
{
    // For a bandwidth-hungry app, predicted remote time must exceed
    // predicted local time in a quiet system.
    PerformanceModel model(FutureKind::ActualWindow, *config);
    model.train(*beTrain);

    const PerformanceSample *heavy = nullptr;
    for (const auto &sample : *beTest)
        if (sample.name == "nweight" || sample.name == "lr")
            heavy = &sample;
    if (!heavy)
        GTEST_SKIP() << "no heavy app in the test split";

    const double local =
        model.predict(heavy->history, heavy->signature,
                      MemoryMode::Local, heavy->futureWindow);
    const double remote =
        model.predict(heavy->history, heavy->signature,
                      MemoryMode::Remote, heavy->futureWindow);
    EXPECT_GT(remote, local);
}

TEST_F(ModelsTest, FutureKindNoneIgnoresFutureVector)
{
    PerformanceModel model(FutureKind::None, *config);
    model.train(*beTrain);
    const auto &sample = (*beTest)[0];
    const double pred = model.predict(sample.history, sample.signature,
                                      sample.mode, ml::Matrix());
    EXPECT_GT(pred, 0.0);
}

TEST_F(ModelsTest, PredictedFutureRequiresSystemModel)
{
    PerformanceModel model(FutureKind::Predicted, *config);
    EXPECT_THROW(model.train(*beTrain, nullptr), std::runtime_error);
    model.train(*beTrain, trainedState);
    EXPECT_TRUE(model.trained());
    const auto eval = model.evaluate(*beTest, trainedState);
    EXPECT_GT(eval.r2, 0.4);
}

TEST_F(ModelsTest, BatchedEvaluateMatchesPerRowLoop)
{
    // evaluate() predicts through chunked predictBatch() calls, and
    // the Predicted-kind Ŝ through batched system forwards.  Rows are
    // independent (DESIGN.md §9), so every number must equal a
    // one-row-at-a-time loop exactly.
    PerformanceModel model(FutureKind::Predicted, *config);
    model.train(*beTrain, trainedState);
    const PerformanceEvaluation eval = model.evaluate(*beTest, trainedState);
    std::vector<double> actual, predicted;
    for (const PerformanceSample &sample : *beTest) {
        const ml::Matrix future =
            trainedState->predictBatch({&sample.history}).front();
        predicted.push_back(
            model
                .predictBatch({{&sample.history, &sample.signature,
                                sample.mode, &future}})
                .front());
        actual.push_back(sample.target);
    }
    EXPECT_EQ(eval.predicted, predicted);
    EXPECT_EQ(eval.r2, stats::r2Score(actual, predicted));
    EXPECT_EQ(eval.mae, stats::meanAbsoluteError(actual, predicted));

    const SystemStateEvaluation state_eval =
        trainedState->evaluate(*stateTest);
    std::vector<std::vector<double>> state_actual(testbed::kNumPerfEvents),
        state_predicted(testbed::kNumPerfEvents);
    for (const SystemStateSample &sample : *stateTest) {
        const ml::Matrix out =
            trainedState->predictBatch({&sample.history}).front();
        for (std::size_t e = 0; e < testbed::kNumPerfEvents; ++e) {
            state_actual[e].push_back(sample.target.at(0, e));
            state_predicted[e].push_back(out.at(0, e));
        }
    }
    double r2_total = 0.0;
    for (std::size_t e = 0; e < testbed::kNumPerfEvents; ++e) {
        const double r2 = stats::r2Score(state_actual[e], state_predicted[e]);
        EXPECT_EQ(state_eval.r2PerEvent[e], r2);
        r2_total += r2;
    }
    EXPECT_EQ(state_eval.r2Average,
              r2_total / static_cast<double>(testbed::kNumPerfEvents));
    // Both test sets span several evaluation chunks, so the chunk
    // seams are covered too.
    EXPECT_GT(beTest->size(), config->batchSize);
}

TEST_F(ModelsTest, PredictorFacadeEndToEnd)
{
    Predictor predictor(*config);
    EXPECT_FALSE(predictor.trained());
    auto lc_dummy = std::vector<PerformanceSample>{}; // LC optional
    predictor.train(*stateTrain, *beTrain, lc_dummy);
    EXPECT_TRUE(predictor.trained());

    const auto &sample = (*beTest)[0];
    const double t = predictor.predictPerformance(
        WorkloadClass::BestEffort, sample.history, sample.signature,
        sample.mode);
    EXPECT_GT(t, 0.0);
    // LC model untrained -> fatal.
    EXPECT_THROW(predictor.predictPerformance(
                     WorkloadClass::LatencyCritical, sample.history,
                     sample.signature, MemoryMode::Remote),
                 std::runtime_error);
}

} // namespace
} // namespace adrias::models
