/**
 * @file
 * Determinism regression: one seed must reproduce a scenario exactly.
 *
 * The whole offline phase rests on this — traces are collected once,
 * persisted and reused, so any hidden nondeterminism (wall-clock reads,
 * unordered-container iteration, uninitialized state) would silently
 * fork the datasets.  Two runs with the same ScenarioConfig must agree
 * bit-for-bit: every counter of every tick, every completion record,
 * and every double of the system-state, BE and LC training datasets.
 */

#include <algorithm>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/threadpool.hh"
#include "ml/matrix.hh"
#include "models/system_state.hh"
#include "scenario/dataset.hh"
#include "scenario/runner.hh"
#include "scenario/signature.hh"

namespace
{

using namespace adrias;

scenario::ScenarioConfig
config()
{
    scenario::ScenarioConfig cfg;
    cfg.durationSec = 600;
    cfg.spawnMinSec = 5;
    cfg.spawnMaxSec = 25;
    cfg.seed = 4242;
    return cfg;
}

scenario::ScenarioResult
runOnce()
{
    scenario::ScenarioRunner runner(config());
    scenario::RandomPlacement policy(777);
    return runner.run(policy);
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

TEST(DeterminismTest, SameSeedReproducesTraceBitForBit)
{
    const auto first = runOnce();
    const auto second = runOnce();

    ASSERT_EQ(first.trace.size(), second.trace.size());
    for (std::size_t t = 0; t < first.trace.size(); ++t) {
        for (std::size_t e = 0; e < testbed::kNumPerfEvents; ++e) {
            ASSERT_EQ(first.trace[t][e], second.trace[t][e])
                << "tick " << t << " event " << e;
        }
    }
    ASSERT_EQ(first.concurrency, second.concurrency);
    EXPECT_EQ(first.totalRemoteTrafficGB, second.totalRemoteTrafficGB);

    ASSERT_EQ(first.records.size(), second.records.size());
    for (std::size_t i = 0; i < first.records.size(); ++i) {
        const auto &a = first.records[i];
        const auto &b = second.records[i];
        EXPECT_EQ(a.name, b.name) << i;
        EXPECT_EQ(a.mode, b.mode) << i;
        EXPECT_EQ(a.arrival, b.arrival) << i;
        EXPECT_EQ(a.completion, b.completion) << i;
        EXPECT_EQ(a.execTimeSec, b.execTimeSec) << i;
        EXPECT_EQ(a.p99Ms, b.p99Ms) << i;
        EXPECT_EQ(a.remoteTrafficGB, b.remoteTrafficGB) << i;
    }
}

// Dataset comparisons are bitwise: `==` on doubles would accept -0.0
// for 0.0 and reject a NaN that was reproduced exactly.

void
expectSameBits(const ml::Matrix &a, const ml::Matrix &b,
               const std::string &where)
{
    ASSERT_EQ(a.rows(), b.rows()) << where;
    ASSERT_EQ(a.cols(), b.cols()) << where;
    EXPECT_EQ(std::memcmp(a.raw().data(), b.raw().data(),
                          a.raw().size() * sizeof(double)),
              0)
        << where;
}

void
expectSameBits(const std::vector<ml::Matrix> &a,
               const std::vector<ml::Matrix> &b, const std::string &where)
{
    ASSERT_EQ(a.size(), b.size()) << where;
    for (std::size_t t = 0; t < a.size(); ++t)
        expectSameBits(a[t], b[t], where + " step " + std::to_string(t));
}

void
expectSameSamples(const std::vector<scenario::SystemStateSample> &a,
                  const std::vector<scenario::SystemStateSample> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        const std::string where = "state sample " + std::to_string(i);
        expectSameBits(a[i].history, b[i].history, where + " history");
        expectSameBits(a[i].target, b[i].target, where + " target");
    }
}

void
expectSameSamples(const std::vector<scenario::PerformanceSample> &a,
                  const std::vector<scenario::PerformanceSample> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        const std::string where = "performance sample " + std::to_string(i);
        EXPECT_EQ(a[i].name, b[i].name) << where;
        EXPECT_EQ(a[i].cls, b[i].cls) << where;
        EXPECT_EQ(a[i].mode, b[i].mode) << where;
        expectSameBits(a[i].history, b[i].history, where + " history");
        expectSameBits(a[i].signature, b[i].signature, where + " signature");
        expectSameBits(a[i].futureWindow, b[i].futureWindow,
                       where + " futureWindow");
        expectSameBits(a[i].futureExec, b[i].futureExec,
                       where + " futureExec");
        EXPECT_EQ(std::memcmp(&a[i].target, &b[i].target, sizeof(double)),
                  0)
            << where << " target";
    }
}

/** The three training datasets of a set of scenarios, compared bitwise. */
void
expectSameDatasets(const std::vector<scenario::ScenarioResult> &first,
                   const std::vector<scenario::ScenarioResult> &second)
{
    const auto state_a = scenario::DatasetBuilder::systemState(first);
    ASSERT_FALSE(state_a.empty());
    expectSameSamples(state_a, scenario::DatasetBuilder::systemState(second));

    static const scenario::SignatureStore signatures = [] {
        scenario::SignatureStore store;
        scenario::collectAllSignatures(store);
        return store;
    }();
    for (const WorkloadClass cls :
         {WorkloadClass::BestEffort, WorkloadClass::LatencyCritical}) {
        const auto perf_a =
            scenario::DatasetBuilder::performance(first, signatures, cls);
        ASSERT_FALSE(perf_a.empty()) << toString(cls);
        expectSameSamples(perf_a, scenario::DatasetBuilder::performance(
                                      second, signatures, cls));
    }
}

TEST(DeterminismTest, SameSeedReproducesDatasetsBitForBit)
{
    expectSameDatasets({runOnce()}, {runOnce()});
}

// ---------------------------------------------------------------------
// Thread-count invariance (DESIGN.md §9): ADRIAS_THREADS must never
// change a result.  Each helper below runs the same workload under a
// serial pool and a 4-thread pool and demands bitwise equality.

std::vector<scenario::ScenarioResult>
runSweep()
{
    std::vector<scenario::SweepItem> items(3);
    for (std::size_t i = 0; i < items.size(); ++i) {
        items[i].config = config();
        items[i].config.seed = 4242 + i;
        items[i].policySeed = 777 + i;
    }
    return scenario::runScenarioSweep(items);
}

void
expectSameResults(const std::vector<scenario::ScenarioResult> &serial,
                  const std::vector<scenario::ScenarioResult> &parallel)
{
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t s = 0; s < serial.size(); ++s) {
        const auto &a = serial[s];
        const auto &b = parallel[s];
        ASSERT_EQ(a.trace.size(), b.trace.size()) << "sweep item " << s;
        for (std::size_t t = 0; t < a.trace.size(); ++t)
            for (std::size_t e = 0; e < testbed::kNumPerfEvents; ++e)
                ASSERT_EQ(a.trace[t][e], b.trace[t][e])
                    << "item " << s << " tick " << t << " event " << e;
        ASSERT_EQ(a.concurrency, b.concurrency) << s;
        EXPECT_EQ(a.totalRemoteTrafficGB, b.totalRemoteTrafficGB) << s;
        ASSERT_EQ(a.records.size(), b.records.size()) << s;
        for (std::size_t i = 0; i < a.records.size(); ++i) {
            EXPECT_EQ(a.records[i].name, b.records[i].name) << s;
            EXPECT_EQ(a.records[i].mode, b.records[i].mode) << s;
            EXPECT_EQ(a.records[i].arrival, b.records[i].arrival) << s;
            EXPECT_EQ(a.records[i].completion, b.records[i].completion)
                << s;
            EXPECT_EQ(a.records[i].execTimeSec, b.records[i].execTimeSec)
                << s;
            EXPECT_EQ(a.records[i].p99Ms, b.records[i].p99Ms) << s;
            EXPECT_EQ(a.records[i].remoteTrafficGB,
                      b.records[i].remoteTrafficGB)
                << s;
        }
    }
}

TEST(DeterminismTest, SweepIsThreadCountInvariant)
{
    std::vector<scenario::ScenarioResult> serial, parallel;
    {
        ScopedThreadOverride one(1);
        serial = runSweep();
    }
    {
        ScopedThreadOverride four(4);
        parallel = runSweep();
    }
    expectSameResults(serial, parallel);
    expectSameDatasets(serial, parallel);
}

TEST(DeterminismTest, TrainingIsThreadCountInvariant)
{
    // Training itself is serial; the pool size must still leave no
    // trace in the trained weights or a prediction.
    scenario::ScenarioRunner runner(config());
    scenario::RandomPlacement policy(777);
    const std::vector<scenario::ScenarioResult> results{
        runner.run(policy)};
    auto samples = scenario::DatasetBuilder::systemState(results);
    ASSERT_GE(samples.size(), 4u);
    samples.resize(std::min<std::size_t>(samples.size(), 24));

    models::ModelConfig model_config;
    model_config.epochs = 2;

    const std::string dir = ::testing::TempDir();
    auto train_and_save = [&](unsigned threads,
                              const std::string &path) {
        ScopedThreadOverride override_(threads);
        models::SystemStateModel model(model_config);
        model.train(samples);
        model.save(path);
        return model.predict(samples.front().history);
    };

    const std::string path_1 = dir + "adrias_state_threads1.model";
    const std::string path_4 = dir + "adrias_state_threads4.model";
    const ml::Matrix pred_1 = train_and_save(1, path_1);
    const ml::Matrix pred_4 = train_and_save(4, path_4);

    // Trained weights and a prediction must be bitwise identical.
    EXPECT_EQ(slurp(path_1), slurp(path_4));
    ASSERT_EQ(pred_1.rows(), pred_4.rows());
    ASSERT_EQ(pred_1.cols(), pred_4.cols());
    EXPECT_EQ(pred_1.raw(), pred_4.raw());
}

} // namespace
