/**
 * @file
 * The models' encoder memos (models::EncodingMemo): the performance
 * model's signature and history branches and the system-state model's
 * Ŝ forecast are reused across predictBatch() calls, keyed by the
 * sequence's contents.  A warm memo must predict bit for bit what a
 * cold model predicts, whatever width the cached rows were encoded at;
 * the same contents at a new address must hit, and new contents under
 * an old name or an old address must be re-encoded; train(),
 * fineTune() and load() must start the memos over; and an engine
 * restored mid-run with cold memos must reach the same decisions as
 * the uninterrupted run.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/io/binary.hh"
#include "core/adrias.hh"
#include "obs/obs.hh"
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
        io::BinaryWriter out;
        model.saveState(out);
        PerformanceModel copy(FutureKind::ActualWindow, *config);
        io::BinaryReader in(out.data());
        EXPECT_TRUE(copy.restoreState(in).ok());
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

    /** The stack's predictor saved and restored: every memo cold. */
    static Predictor
    coldPredictor()
    {
        io::BinaryWriter out;
        stack->predictor().saveState(out);
        Predictor copy(*config);
        io::BinaryReader in(out.data());
        EXPECT_TRUE(copy.restoreState(in).ok());
        return copy;
    }

    /** Entries in every memo of `predictor`. */
    static std::size_t
    memoized(const Predictor &predictor)
    {
        return predictor.systemModel().memoizedStates() +
               predictor.bestEffortModel().memoizedSignatures() +
               predictor.bestEffortModel().memoizedHistories() +
               predictor.latencyCriticalModel().memoizedSignatures() +
               predictor.latencyCriticalModel().memoizedHistories();
    }

    static core::AdriasStack *stack;
    static std::vector<PerformanceSample> *samples;
    static ModelConfig *config;
};

core::AdriasStack *SignatureMemoTest::stack = nullptr;
std::vector<PerformanceSample> *SignatureMemoTest::samples = nullptr;
ModelConfig *SignatureMemoTest::config = nullptr;

/** The history and Ŝ memos, on the same shared stack. */
class EncodingMemoTest : public SignatureMemoTest
{
};

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
    ASSERT_GT(model.memoizedHistories(), 0u);
    model.fineTune(half, nullptr, 2);
    EXPECT_EQ(model.memoizedSignatures(), 0u);
    EXPECT_EQ(model.memoizedHistories(), 0u);
    PerformanceModel tuned = coldCopy(model);
    expectBitwiseEqual(predictEach(model), predictEach(tuned));

    ASSERT_GT(model.memoizedSignatures(), 0u);
    ASSERT_GT(model.memoizedHistories(), 0u);
    model.train(half);
    EXPECT_EQ(model.memoizedSignatures(), 0u);
    EXPECT_EQ(model.memoizedHistories(), 0u);
    PerformanceModel retrained = coldCopy(model);
    expectBitwiseEqual(predictEach(model), predictEach(retrained));

    ASSERT_GT(model.memoizedSignatures(), 0u);
    ASSERT_GT(model.memoizedHistories(), 0u);
    PerformanceModel other = trainedModel(/*seed=*/99);
    const std::string path =
        (std::filesystem::temp_directory_path() /
         "adrias_signature_memo_test.model")
            .string();
    other.save(path);
    ASSERT_TRUE(model.load(path).ok());
    std::filesystem::remove(path);
    EXPECT_EQ(model.memoizedSignatures(), 0u);
    EXPECT_EQ(model.memoizedHistories(), 0u);
    expectBitwiseEqual(predictEach(model), predictEach(other));
}

/**
 * A serve-shaped batch: four shard windows (one pointer each, as an
 * epoch snapshot hands them out) under 32 rows, a BE call and then an
 * LC call, so the LC call's Ŝ rows come from the BE call's forecasts.
 */
TEST_F(EncodingMemoTest, WarmPredictorMatchesColdOnServeShapedBatch)
{
    ASSERT_TRUE(stack->predictor().latencyCriticalModel().trained());
    constexpr std::size_t kWindows = 4;
    constexpr std::size_t kRows = 32;
    ASSERT_GE(samples->size(), kRows);

    // Window copies, so no pointer matches a sample's.
    std::vector<std::vector<ml::Matrix>> windows;
    for (std::size_t w = 0; w < kWindows; ++w)
        windows.push_back((*samples)[w * 5].history);
    std::vector<Predictor::PerfQuery> batch;
    for (std::size_t r = 0; r < kRows; ++r)
        batch.push_back({&windows[r % kWindows], &(*samples)[r].signature,
                         r % 2 == 0 ? MemoryMode::Local
                                    : MemoryMode::Remote});

    const auto serve = [&batch](const Predictor &predictor) {
        std::vector<double> out = predictor.predictPerformanceBatch(
            WorkloadClass::BestEffort, batch);
        const std::vector<double> lc = predictor.predictPerformanceBatch(
            WorkloadClass::LatencyCritical, batch);
        out.insert(out.end(), lc.begin(), lc.end());
        return out;
    };

    // Warm: the first pass fills every memo, the second is all hits.
    Predictor warm = coldPredictor();
    ASSERT_EQ(memoized(warm), 0u);
    const std::vector<double> first = serve(warm);
    EXPECT_EQ(warm.systemModel().memoizedStates(), kWindows);
    EXPECT_EQ(warm.bestEffortModel().memoizedHistories(), kWindows);
    EXPECT_EQ(warm.latencyCriticalModel().memoizedHistories(), kWindows);
    const std::size_t filled = memoized(warm);
    const std::vector<double> second = serve(warm);
    EXPECT_EQ(memoized(warm), filled);

    // Cold: one-row calls, each on a model that has never seen a row.
    std::vector<double> single;
    for (const WorkloadClass cls :
         {WorkloadClass::BestEffort, WorkloadClass::LatencyCritical})
        for (const Predictor::PerfQuery &query : batch)
            single.push_back(coldPredictor().predictPerformance(
                cls, *query.history, *query.signature, query.mode));
    expectBitwiseEqual(first, single);
    expectBitwiseEqual(second, single);
}

TEST_F(EncodingMemoTest, SameContentsAtNewAddressHit)
{
    const bool was_armed = obs::enabled();
    obs::setEnabled(true);
    obs::MetricsRegistry &reg = obs::MetricsRegistry::global();
    obs::Counter &history_hits = reg.counter("predictor.history_memo.hits");
    obs::Counter &state_hits = reg.counter("predictor.state_memo.hits");
    obs::Counter &state_misses =
        reg.counter("predictor.state_memo.misses");

    Predictor predictor = coldPredictor();
    const PerformanceSample &probe = samples->front();
    const std::vector<ml::Matrix> window = probe.history;
    const double before = predictor.predictPerformance(
        WorkloadClass::BestEffort, window, probe.signature, probe.mode);
    const std::size_t filled = memoized(predictor);
    ASSERT_EQ(predictor.systemModel().memoizedStates(), 1u);
    ASSERT_EQ(predictor.bestEffortModel().memoizedHistories(), 1u);

    // A fresh copy of the window, as the orchestrator bins one per
    // decision: nothing is re-encoded and the answer does not move.
    const std::uint64_t hits_before = history_hits.get();
    const std::uint64_t state_hits_before = state_hits.get();
    const std::uint64_t state_misses_before = state_misses.get();
    const std::vector<ml::Matrix> copy = probe.history;
    const double after = predictor.predictPerformance(
        WorkloadClass::BestEffort, copy, probe.signature, probe.mode);
    EXPECT_EQ(bits(after), bits(before));
    EXPECT_EQ(memoized(predictor), filled);
    if (obs::compiledIn()) {
        EXPECT_EQ(history_hits.get(), hits_before + 1);
        EXPECT_EQ(state_hits.get(), state_hits_before + 1);
        EXPECT_EQ(state_misses.get(), state_misses_before);
    }
    obs::setEnabled(was_armed);
}

TEST_F(EncodingMemoTest, NewContentsAtReusedAddressMiss)
{
    Predictor predictor = coldPredictor();
    const PerformanceSample &probe = samples->front();
    std::vector<ml::Matrix> window = probe.history;
    const double before = predictor.predictPerformance(
        WorkloadClass::BestEffort, window, probe.signature, probe.mode);
    const ml::Matrix state_before = predictor.systemModel().predict(window);

    // The same vector, rebinned with new counters in place.
    for (ml::Matrix &step : window)
        for (double &value : step.raw())
            value *= 1.5;
    const double after = predictor.predictPerformance(
        WorkloadClass::BestEffort, window, probe.signature, probe.mode);
    const ml::Matrix state_after = predictor.systemModel().predict(window);
    EXPECT_EQ(predictor.systemModel().memoizedStates(), 2u);
    EXPECT_EQ(predictor.bestEffortModel().memoizedHistories(), 2u);
    EXPECT_NE(bits(after), bits(before));
    EXPECT_NE(state_after.raw(), state_before.raw());

    Predictor cold = coldPredictor();
    EXPECT_EQ(bits(after),
              bits(cold.predictPerformance(WorkloadClass::BestEffort,
                                           window, probe.signature,
                                           probe.mode)));
    EXPECT_EQ(state_after.raw(), coldPredictor().systemModel()
                                     .predict(window)
                                     .raw());
}

TEST_F(EncodingMemoTest, SystemStateTrainAndLoadStartTheMemoOver)
{
    std::vector<scenario::SystemStateSample> states =
        scenario::DatasetBuilder::systemState(stack->traces());
    ASSERT_GT(states.size(), 8u);
    states.resize(std::min<std::size_t>(states.size(), 64));
    const auto predictAll = [&states](const SystemStateModel &model) {
        std::vector<double> out;
        for (const auto &sample : states) {
            const ml::Matrix row = model.predict(sample.history);
            out.insert(out.end(), row.raw().begin(), row.raw().end());
        }
        return out;
    };
    const auto coldState = [](SystemStateModel &model) {
        io::BinaryWriter out;
        model.saveState(out);
        SystemStateModel copy(*config);
        io::BinaryReader in(out.data());
        EXPECT_TRUE(copy.restoreState(in).ok());
        return copy;
    };

    SystemStateModel model(*config);
    model.train(states);
    EXPECT_EQ(model.memoizedStates(), 0u);
    predictAll(model);
    ASSERT_GT(model.memoizedStates(), 0u);
    model.train(std::vector<scenario::SystemStateSample>(
        states.begin(), states.begin() + 8));
    EXPECT_EQ(model.memoizedStates(), 0u);
    SystemStateModel retrained = coldState(model);
    expectBitwiseEqual(predictAll(model), predictAll(retrained));

    ASSERT_GT(model.memoizedStates(), 0u);
    io::BinaryWriter out;
    Predictor source = coldPredictor();
    source.systemModel().saveState(out);
    io::BinaryReader in(out.data());
    ASSERT_TRUE(model.restoreState(in).ok());
    EXPECT_EQ(model.memoizedStates(), 0u);
    SystemStateModel loaded = coldState(model);
    expectBitwiseEqual(predictAll(model), predictAll(loaded));
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
    ASSERT_GT(warm.bestEffortModel().memoizedHistories(), 0u);
    ASSERT_GT(warm.systemModel().memoizedStates(), 0u);
    io::BinaryWriter out;
    warm.saveState(out);
    engine.saveState(out);
    first.saveState(out);

    // A fresh process: every memo of the restored predictor starts
    // cold.
    Predictor restored(*config);
    io::BinaryReader in(out.data());
    ASSERT_TRUE(restored.restoreState(in).ok());
    ASSERT_EQ(memoized(restored), 0u);
    scenario::SignatureStore resumed_store = stack->signatures();
    core::AdriasOrchestrator resumed(restored, resumed_store, {});
    scenario::ScenarioEngine resumed_engine(run);
    ASSERT_TRUE(resumed_engine.restoreState(in).ok());
    ASSERT_TRUE(resumed.restoreState(in).ok());
    while (!resumed_engine.finished())
        resumed_engine.stepTick(resumed);
    const scenario::ScenarioResult actual = resumed_engine.finish();
    EXPECT_GT(restored.bestEffortModel().memoizedSignatures(), 0u);
    EXPECT_GT(restored.bestEffortModel().memoizedHistories(), 0u);
    EXPECT_GT(restored.systemModel().memoizedStates(), 0u);

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
