/** @file Round-trip persistence tests for the prediction models. */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string_view>

#include "models/performance.hh"
#include "models/predictor.hh"
#include "models/system_state.hh"
#include "scenario/dataset.hh"

namespace adrias::models
{
namespace
{

using scenario::RandomPlacement;
using scenario::ScenarioConfig;
using scenario::ScenarioRunner;

/** Minimal trained models shared across the suite. */
class PersistenceTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        ScenarioConfig scenario_config;
        scenario_config.durationSec = 1500;
        scenario_config.spawnMinSec = 5;
        scenario_config.spawnMaxSec = 25;
        scenario_config.seed = 313;
        ScenarioRunner runner(scenario_config);
        RandomPlacement policy(314);
        std::vector<scenario::ScenarioResult> results{runner.run(policy)};

        signatures = new scenario::SignatureStore;
        scenario::collectAllSignatures(*signatures);

        config = new ModelConfig;
        config->epochs = 8;
        config->hidden = 12;
        config->headWidth = 16;

        stateSamples = new std::vector<scenario::SystemStateSample>(
            scenario::DatasetBuilder::systemState(results, 10));
        stateModel = new SystemStateModel(*config);
        stateModel->train(*stateSamples);
        stateProbe =
            new std::vector<ml::Matrix>(stateSamples->front().history);

        beSamples = new std::vector<scenario::PerformanceSample>(
            scenario::DatasetBuilder::performance(
                results, *signatures, WorkloadClass::BestEffort));
        perfModel =
            new PerformanceModel(FutureKind::ActualWindow, *config);
        perfModel->train(*beSamples);
        perfProbe = new scenario::PerformanceSample(beSamples->front());
        lcSamples = new std::vector<scenario::PerformanceSample>(
            scenario::DatasetBuilder::performance(
                results, *signatures, WorkloadClass::LatencyCritical));
    }

    static void
    TearDownTestSuite()
    {
        delete signatures;
        delete config;
        delete stateSamples;
        delete beSamples;
        delete stateModel;
        delete stateProbe;
        delete perfModel;
        delete perfProbe;
        delete lcSamples;
    }

    static scenario::SignatureStore *signatures;
    static ModelConfig *config;
    static std::vector<scenario::SystemStateSample> *stateSamples;
    static std::vector<scenario::PerformanceSample> *beSamples;
    static SystemStateModel *stateModel;
    static std::vector<ml::Matrix> *stateProbe;
    static PerformanceModel *perfModel;
    static scenario::PerformanceSample *perfProbe;
    static std::vector<scenario::PerformanceSample> *lcSamples;

    /** A model small enough to truncate at every 8-byte boundary. */
    static ModelConfig
    tinyConfig(std::uint64_t seed)
    {
        ModelConfig tiny;
        tiny.epochs = 2;
        tiny.hidden = 4;
        tiny.headWidth = 4;
        tiny.seed = seed;
        return tiny;
    }

    /** Every prediction the probes give, as raw bit patterns. */
    static std::vector<std::uint64_t>
    predictionBits(const SystemStateModel &state,
                   const PerformanceModel &perf)
    {
        std::vector<std::uint64_t> bits;
        const ml::Matrix forecast = state.predict(*stateProbe);
        for (double v : forecast.raw())
            bits.push_back(std::bit_cast<std::uint64_t>(v));
        bits.push_back(std::bit_cast<std::uint64_t>(
            perf.predict(perfProbe->history, perfProbe->signature,
                         perfProbe->mode, perfProbe->futureWindow)));
        return bits;
    }

    /** Every prediction a trained stack gives the probes, as bits. */
    static std::vector<std::uint64_t>
    stackBits(const Predictor &predictor)
    {
        std::vector<std::uint64_t> bits;
        const ml::Matrix forecast =
            predictor.systemModel().predict(*stateProbe);
        for (double v : forecast.raw())
            bits.push_back(std::bit_cast<std::uint64_t>(v));
        const auto perf = [&predictor](WorkloadClass cls,
                                       const scenario::PerformanceSample
                                           &probe) {
            return std::bit_cast<std::uint64_t>(predictor.predictPerformance(
                cls, probe.history, probe.signature, probe.mode));
        };
        bits.push_back(perf(WorkloadClass::BestEffort, *perfProbe));
        bits.push_back(
            perf(WorkloadClass::LatencyCritical, lcSamples->front()));
        return bits;
    }

    /** Every parameter value of `model`, as raw bit patterns. */
    static std::vector<std::uint64_t>
    weightBits(const PerformanceModel &model)
    {
        std::vector<std::uint64_t> bits;
        for (const ml::Param *p : model.params())
            for (double v : p->value.raw())
                bits.push_back(std::bit_cast<std::uint64_t>(v));
        return bits;
    }
};

scenario::SignatureStore *PersistenceTest::signatures = nullptr;
ModelConfig *PersistenceTest::config = nullptr;
std::vector<scenario::SystemStateSample> *PersistenceTest::stateSamples =
    nullptr;
std::vector<scenario::PerformanceSample> *PersistenceTest::beSamples =
    nullptr;
SystemStateModel *PersistenceTest::stateModel = nullptr;
std::vector<ml::Matrix> *PersistenceTest::stateProbe = nullptr;
PerformanceModel *PersistenceTest::perfModel = nullptr;
scenario::PerformanceSample *PersistenceTest::perfProbe = nullptr;
std::vector<scenario::PerformanceSample> *PersistenceTest::lcSamples =
    nullptr;

TEST_F(PersistenceTest, SystemStateRoundTrip)
{
    const std::string path =
        ::testing::TempDir() + "adrias_state_model.bin";
    stateModel->save(path);

    SystemStateModel reloaded(*config);
    EXPECT_FALSE(reloaded.trained());
    ASSERT_TRUE(reloaded.load(path).ok());
    EXPECT_TRUE(reloaded.trained());

    const ml::Matrix a = stateModel->predict(*stateProbe);
    const ml::Matrix b = reloaded.predict(*stateProbe);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(std::bit_cast<std::uint64_t>(a.raw()[i]),
                  std::bit_cast<std::uint64_t>(b.raw()[i]));
    std::remove(path.c_str());
}

TEST_F(PersistenceTest, PerformanceRoundTrip)
{
    const std::string path =
        ::testing::TempDir() + "adrias_perf_model.bin";
    perfModel->save(path);

    PerformanceModel reloaded(FutureKind::ActualWindow, *config);
    ASSERT_TRUE(reloaded.load(path).ok());
    EXPECT_TRUE(reloaded.trained());

    const double a =
        perfModel->predict(perfProbe->history, perfProbe->signature,
                           perfProbe->mode, perfProbe->futureWindow);
    const double b =
        reloaded.predict(perfProbe->history, perfProbe->signature,
                         perfProbe->mode, perfProbe->futureWindow);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a),
              std::bit_cast<std::uint64_t>(b));
    std::remove(path.c_str());
}

TEST_F(PersistenceTest, FutureKindMismatchRejected)
{
    io::BinaryWriter out;
    perfModel->saveState(out);
    PerformanceModel wrong_kind(FutureKind::None, *config);
    io::BinaryReader in(out.data());
    const Result<void> restored = wrong_kind.restoreState(in);
    ASSERT_FALSE(restored.ok());
    EXPECT_EQ(restored.error().code, ErrorCode::BadHeader);
    EXPECT_FALSE(wrong_kind.trained());
}

TEST_F(PersistenceTest, TopologyMismatchRejected)
{
    io::BinaryWriter out;
    stateModel->saveState(out);
    ModelConfig bigger = *config;
    bigger.hidden = 20;
    SystemStateModel wrong_topology(bigger);
    io::BinaryReader in(out.data());
    const Result<void> restored = wrong_topology.restoreState(in);
    ASSERT_FALSE(restored.ok());
    EXPECT_EQ(restored.error().code, ErrorCode::Geometry);
    EXPECT_FALSE(wrong_topology.trained());
}

TEST_F(PersistenceTest, SaveBeforeTrainRejected)
{
    SystemStateModel untrained(*config);
    EXPECT_THROW(untrained.save("/tmp/should_not_exist.txt"),
                 std::runtime_error);
    PerformanceModel untrained_perf(FutureKind::None, *config);
    EXPECT_THROW(untrained_perf.save("/tmp/should_not_exist.txt"),
                 std::runtime_error);
}

TEST_F(PersistenceTest, MissingFileRejected)
{
    SystemStateModel model(*config);
    const Result<void> loaded = model.load("/no/such/model/file.txt");
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.error().code, ErrorCode::Io);
    EXPECT_FALSE(model.trained());
}

TEST_F(PersistenceTest, TruncatedPayloadLeavesTrainedModelUnchanged)
{
    // The payloads come from differently seeded models, so a restore
    // that committed any part of one would move the predictions.
    SystemStateModel state(tinyConfig(1));
    state.train(*stateSamples);
    PerformanceModel perf(FutureKind::ActualWindow, tinyConfig(2));
    perf.train(*beSamples);
    SystemStateModel other_state(tinyConfig(3));
    other_state.train(*stateSamples);
    PerformanceModel other_perf(FutureKind::ActualWindow, tinyConfig(4));
    other_perf.train(*beSamples);
    io::BinaryWriter state_out, perf_out;
    other_state.saveState(state_out);
    other_perf.saveState(perf_out);
    const std::vector<std::uint64_t> before = predictionBits(state, perf);

    const auto truncations = [](const std::string &payload,
                                const auto &restore) {
        for (std::size_t size = 0; size < payload.size(); size += 8) {
            io::BinaryReader in(std::string_view(payload).substr(0, size));
            Result<void> restored;
            EXPECT_NO_THROW(restored = restore(in)) << "at " << size;
            EXPECT_FALSE(restored.ok()) << "at " << size;
        }
    };
    truncations(state_out.data(), [&state](io::BinaryReader &in) {
        return state.restoreState(in);
    });
    truncations(perf_out.data(), [&perf](io::BinaryReader &in) {
        return perf.restoreState(in);
    });
    EXPECT_EQ(predictionBits(state, perf), before);

    // The whole payloads do restore, and do move the predictions.
    io::BinaryReader state_in(state_out.data());
    io::BinaryReader perf_in(perf_out.data());
    ASSERT_TRUE(state.restoreState(state_in).ok());
    ASSERT_TRUE(perf.restoreState(perf_in).ok());
    EXPECT_NE(predictionBits(state, perf), before);
}

TEST_F(PersistenceTest, RestoredModelFineTunesLikeTheOriginal)
{
    PerformanceModel original(FutureKind::ActualWindow, tinyConfig(5));
    original.train(*beSamples);
    io::BinaryWriter out;
    original.saveState(out);
    PerformanceModel restored(FutureKind::ActualWindow, tinyConfig(6));
    io::BinaryReader in(out.data());
    ASSERT_TRUE(restored.restoreState(in).ok());
    ASSERT_TRUE(in.status().ok());
    ASSERT_EQ(weightBits(restored), weightBits(original));

    // fineTune shuffles and draws dropout masks from the model's RNG:
    // the restored stream must continue where the original's is.
    original.fineTune(*beSamples, nullptr, 2);
    restored.fineTune(*beSamples, nullptr, 2);
    EXPECT_EQ(weightBits(restored), weightBits(original));
}

TEST_F(PersistenceTest, TruncatedStackLeavesEveryModelUnchanged)
{
    ASSERT_GE(lcSamples->size(), 4u);
    const auto trainedStack = [this](std::uint64_t seed) {
        auto predictor = std::make_unique<Predictor>(tinyConfig(seed));
        predictor->train(*stateSamples, *beSamples, *lcSamples);
        return predictor;
    };
    const std::unique_ptr<Predictor> stack = trainedStack(1);
    const std::unique_ptr<Predictor> other = trainedStack(99);
    io::BinaryWriter out;
    other->saveState(out);
    const std::string &payload = out.data();

    // The stack payload is the flags, then the system, BE and LC
    // payloads; cut halfway into the BE and into the LC section.
    io::BinaryWriter be_out, lc_out;
    other->bestEffortModel().saveState(be_out);
    other->latencyCriticalModel().saveState(lc_out);
    const std::size_t lc_begin = payload.size() - lc_out.data().size();
    const std::size_t be_begin = lc_begin - be_out.data().size();
    const std::vector<std::uint64_t> before = stackBits(*stack);
    for (const std::size_t cut : {be_begin + be_out.data().size() / 2,
                                  lc_begin + lc_out.data().size() / 2}) {
        io::BinaryReader in(std::string_view(payload).substr(0, cut));
        const Result<void> restored = stack->restoreState(in);
        ASSERT_FALSE(restored.ok()) << "at " << cut;
        EXPECT_EQ(restored.error().code, ErrorCode::Truncated);
        EXPECT_TRUE(stack->trained());
        EXPECT_EQ(stackBits(*stack), before) << "at " << cut;
    }

    // The whole payload does restore, and does move the predictions.
    io::BinaryReader in(payload);
    ASSERT_TRUE(stack->restoreState(in).ok());
    EXPECT_EQ(stackBits(*stack), stackBits(*other));
    EXPECT_NE(stackBits(*stack), before);
}

TEST_F(PersistenceTest, TrailingBytesLeaveLoadedModelUnchanged)
{
    const std::string state_path =
        ::testing::TempDir() + "adrias_trailing_state.bin";
    const std::string perf_path =
        ::testing::TempDir() + "adrias_trailing_perf.bin";
    SystemStateModel other_state(tinyConfig(99));
    other_state.train(*stateSamples);
    other_state.save(state_path);
    PerformanceModel other_perf(FutureKind::ActualWindow, tinyConfig(98));
    other_perf.train(*beSamples);
    other_perf.save(perf_path);
    for (const std::string &path : {state_path, perf_path})
        std::ofstream(path, std::ios::binary | std::ios::app) << "tail";

    SystemStateModel state(tinyConfig(1));
    state.train(*stateSamples);
    PerformanceModel perf(FutureKind::ActualWindow, tinyConfig(2));
    perf.train(*beSamples);
    const std::vector<std::uint64_t> before = predictionBits(state, perf);
    const Result<void> state_loaded = state.load(state_path);
    const Result<void> perf_loaded = perf.load(perf_path);
    ASSERT_FALSE(state_loaded.ok());
    ASSERT_FALSE(perf_loaded.ok());
    EXPECT_EQ(state_loaded.error().code, ErrorCode::TrailingData);
    EXPECT_EQ(perf_loaded.error().code, ErrorCode::TrailingData);
    EXPECT_EQ(predictionBits(state, perf), before);
    std::remove(state_path.c_str());
    std::remove(perf_path.c_str());
}

} // namespace
} // namespace adrias::models
