/**
 * @file
 * The performance model's signature memo: a signature's encoding is
 * reused across predictBatch() calls, keyed by the signature's
 * contents.  A warm memo must predict bit for bit what a cold model
 * predicts, whatever width the cached rows were encoded at; new
 * contents under an old name or an old address must be re-encoded;
 * train(), fineTune() and load() must start the memo over; and an
 * engine restored mid-run with a cold memo must reach the same
 * decisions as the uninterrupted run.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/io/binary.hh"
#include "core/adrias.hh"
#include "scenario/engine.hh"

namespace adrias::models
{
namespace
{

using scenario::PerformanceSample;

std::uint64_t
bits(double value)
{
    return std::bit_cast<std::uint64_t>(value);
}

/** One small trained stack and its BE dataset, shared by the suite. */
class SignatureMemoTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        core::AdriasStack::BuildOptions options;
        options.scenarios = 3;
        options.scenarioDurationSec = 1200;
        options.seed = 2100;
        options.model.epochs = 6;
        options.model.hidden = 8;
        options.model.headWidth = 12;
        stack = new core::AdriasStack(options);
        samples = new std::vector<PerformanceSample>(
            scenario::DatasetBuilder::performance(
                stack->traces(), stack->signatures(),
                WorkloadClass::BestEffort));
        config = new ModelConfig(options.model);
    }

    static void
    TearDownTestSuite()
    {
        delete stack;
        delete samples;
        delete config;
    }

    /** A freshly trained {120, 120} model (needs no system model). */
    static PerformanceModel
    trainedModel(std::uint64_t seed = 7)
    {
        ModelConfig knobs = *config;
        knobs.seed = seed;
        PerformanceModel model(FutureKind::ActualWindow, knobs);
        model.train(*samples);
        return model;
    }

    /** `model` saved and loaded into a new object: a cold memo. */
    static PerformanceModel
    coldCopy(PerformanceModel &model)
    {
        std::stringstream text;
        model.saveToStream(text);
        PerformanceModel copy(FutureKind::ActualWindow, *config);
        copy.loadFromStream(text);
        return copy;
    }

    /** One single-row prediction per sample, in order. */
    static std::vector<double>
    predictEach(const PerformanceModel &model)
    {
        std::vector<double> out;
        for (const PerformanceSample &sample : *samples)
            out.push_back(model.predict(sample.history, sample.signature,
                                        sample.mode,
                                        sample.futureWindow));
        return out;
    }

    static std::size_t
    distinctApps()
    {
        std::map<std::string, int> apps;
        for (const PerformanceSample &sample : *samples)
            apps[sample.name] = 0;
        return apps.size();
    }

    static void
    expectBitwiseEqual(const std::vector<double> &a,
                       const std::vector<double> &b)
    {
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t i = 0; i < a.size(); ++i)
            EXPECT_EQ(bits(a[i]), bits(b[i])) << "row " << i;
    }

    static core::AdriasStack *stack;
    static std::vector<PerformanceSample> *samples;
    static ModelConfig *config;
};

core::AdriasStack *SignatureMemoTest::stack = nullptr;
std::vector<PerformanceSample> *SignatureMemoTest::samples = nullptr;
ModelConfig *SignatureMemoTest::config = nullptr;

TEST_F(SignatureMemoTest, WarmMemoMatchesColdModelBitwise)
{
    ASSERT_GT(samples->size(), 2 * config->batchSize);
    PerformanceModel warm = trainedModel();
    EXPECT_EQ(warm.memoizedSignatures(), 0u);

    // Warm it one row at a time, so every cached row was encoded at
    // width 1; evaluate() then reads them all at chunk width.
    const std::vector<double> single = predictEach(warm);
    const std::size_t apps = distinctApps();
    EXPECT_EQ(warm.memoizedSignatures(), apps);
    const PerformanceEvaluation from_memo = warm.evaluate(*samples);
    EXPECT_EQ(warm.memoizedSignatures(), apps);

    // A cold copy encodes each app at its first chunk's miss width.
    PerformanceModel cold = coldCopy(warm);
    EXPECT_EQ(cold.memoizedSignatures(), 0u);
    const PerformanceEvaluation recomputed = cold.evaluate(*samples);
    expectBitwiseEqual(from_memo.predicted, recomputed.predicted);
    expectBitwiseEqual(single, recomputed.predicted);
}

TEST_F(SignatureMemoTest, NewContentsUnderTheSameNameAreReencoded)
{
    PerformanceModel model = trainedModel();
    const PerformanceSample &probe = samples->front();
    scenario::SignatureStore store;
    store.put("app", probe.signature);
    const std::vector<ml::Matrix> *slot = &store.get("app");
    const double before = model.predict(probe.history, *slot, probe.mode,
                                        probe.futureWindow);

    // Same name and (for the map entry) the same address, new contents.
    std::vector<ml::Matrix> changed = probe.signature;
    for (ml::Matrix &step : changed)
        for (double &value : step.raw())
            value *= 1.5;
    store.put("app", changed);
    ASSERT_EQ(&store.get("app"), slot);
    const double after = model.predict(probe.history, store.get("app"),
                                       probe.mode, probe.futureWindow);

    PerformanceModel cold = coldCopy(model);
    EXPECT_EQ(bits(after), bits(cold.predict(probe.history, changed,
                                             probe.mode,
                                             probe.futureWindow)));
    EXPECT_NE(bits(after), bits(before));

    // A bitwise-different zero is different contents, too.
    std::vector<ml::Matrix> zeros = probe.signature;
    for (ml::Matrix &step : zeros)
        for (double &value : step.raw())
            value = 0.0;
    std::vector<ml::Matrix> negative_zeros = zeros;
    for (ml::Matrix &step : negative_zeros)
        for (double &value : step.raw())
            value = -0.0;
    const std::size_t cached = model.memoizedSignatures();
    model.predict(probe.history, zeros, probe.mode, probe.futureWindow);
    model.predict(probe.history, negative_zeros, probe.mode,
                  probe.futureWindow);
    EXPECT_EQ(model.memoizedSignatures(), cached + 2);
}

TEST_F(SignatureMemoTest, TrainFineTuneAndLoadStartTheMemoOver)
{
    const std::vector<PerformanceSample> half(
        samples->begin(),
        samples->begin() + static_cast<std::ptrdiff_t>(samples->size() / 2));

    PerformanceModel model = trainedModel();
    predictEach(model);
    ASSERT_GT(model.memoizedSignatures(), 0u);
    model.fineTune(half, nullptr, 2);
    EXPECT_EQ(model.memoizedSignatures(), 0u);
    PerformanceModel tuned = coldCopy(model);
    expectBitwiseEqual(predictEach(model), predictEach(tuned));

    ASSERT_GT(model.memoizedSignatures(), 0u);
    model.train(half);
    EXPECT_EQ(model.memoizedSignatures(), 0u);
    PerformanceModel retrained = coldCopy(model);
    expectBitwiseEqual(predictEach(model), predictEach(retrained));

    ASSERT_GT(model.memoizedSignatures(), 0u);
    PerformanceModel other = trainedModel(/*seed=*/99);
    const std::string path =
        (std::filesystem::temp_directory_path() /
         "adrias_signature_memo_test.model")
            .string();
    other.save(path);
    model.load(path);
    std::filesystem::remove(path);
    EXPECT_EQ(model.memoizedSignatures(), 0u);
    expectBitwiseEqual(predictEach(model), predictEach(other));
}

/** (id, mode) of every non-interference deployment, id order. */
std::vector<std::pair<DeploymentId, MemoryMode>>
placements(const scenario::ScenarioResult &result)
{
    std::map<DeploymentId, MemoryMode> modes;
    for (const auto &record : result.records)
        if (record.cls != WorkloadClass::Interference)
            modes[record.id] = record.mode;
    return {modes.begin(), modes.end()};
}

TEST_F(SignatureMemoTest, EngineRestoreWithColdMemoReachesSameDecisions)
{
    scenario::ScenarioConfig run;
    run.durationSec = 900;
    run.spawnMinSec = 5;
    run.spawnMaxSec = 20;
    run.seed = 2150;
    constexpr SimTime kSnapshotTick = 450;
    const Predictor &warm = stack->predictor();

    scenario::SignatureStore whole_store = stack->signatures();
    core::AdriasOrchestrator whole(warm, whole_store, {});
    scenario::ScenarioEngine uninterrupted(run);
    while (!uninterrupted.finished())
        uninterrupted.stepTick(whole);
    const scenario::ScenarioResult expected = uninterrupted.finish();

    scenario::SignatureStore first_store = stack->signatures();
    core::AdriasOrchestrator first(warm, first_store, {});
    scenario::ScenarioEngine engine(run);
    while (engine.now() < kSnapshotTick)
        engine.stepTick(first);
    ASSERT_GT(warm.bestEffortModel().memoizedSignatures(), 0u);
    io::BinaryWriter out;
    warm.saveState(out);
    engine.saveState(out);
    first.saveState(out);

    // A fresh process: the restored predictor's memo starts cold.
    Predictor restored(*config);
    io::BinaryReader in(out.data());
    ASSERT_TRUE(restored.restoreState(in).ok());
    ASSERT_EQ(restored.bestEffortModel().memoizedSignatures(), 0u);
    scenario::SignatureStore resumed_store = stack->signatures();
    core::AdriasOrchestrator resumed(restored, resumed_store, {});
    scenario::ScenarioEngine resumed_engine(run);
    ASSERT_TRUE(resumed_engine.restoreState(in).ok());
    ASSERT_TRUE(resumed.restoreState(in).ok());
    while (!resumed_engine.finished())
        resumed_engine.stepTick(resumed);
    const scenario::ScenarioResult actual = resumed_engine.finish();
    EXPECT_GT(restored.bestEffortModel().memoizedSignatures(), 0u);

    const auto want = placements(expected);
    const auto got = placements(actual);
    ASSERT_FALSE(want.empty());
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].first, want[i].first) << "row " << i;
        EXPECT_EQ(got[i].second, want[i].second) << "row " << i;
    }
    const core::OrchestratorStats a = whole.stats();
    const core::OrchestratorStats b = resumed.stats();
    EXPECT_EQ(b.localPlacements, a.localPlacements);
    EXPECT_EQ(b.remotePlacements, a.remotePlacements);
    EXPECT_EQ(b.bootstrapPlacements, a.bootstrapPlacements);
}

} // namespace
} // namespace adrias::models
