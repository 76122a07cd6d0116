/**
 * @file
 * Determinism regression: one seed must reproduce a scenario exactly.
 *
 * The whole offline phase rests on this — traces are collected once,
 * persisted and reused, so any hidden nondeterminism (wall-clock reads,
 * unordered-container iteration, uninitialized state) would silently
 * fork the datasets.  Two runs with the same ScenarioConfig must agree
 * bit-for-bit: every counter of every tick, every completion record,
 * and the serialized CSV artifacts byte-for-byte.
 */

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/threadpool.hh"
#include "ml/matrix.hh"
#include "models/system_state.hh"
#include "scenario/dataset.hh"
#include "scenario/dataset_io.hh"
#include "scenario/runner.hh"

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

TEST(DeterminismTest, SameSeedReproducesDatasetCsvByteForByte)
{
    const std::vector<scenario::ScenarioResult> first{runOnce()};
    const std::vector<scenario::ScenarioResult> second{runOnce()};

    const auto state_a = scenario::DatasetBuilder::systemState(first);
    const auto state_b = scenario::DatasetBuilder::systemState(second);
    ASSERT_FALSE(state_a.empty());
    ASSERT_EQ(state_a.size(), state_b.size());

    const std::string dir = ::testing::TempDir();
    const std::string path_a = dir + "adrias_det_state_a.csv";
    const std::string path_b = dir + "adrias_det_state_b.csv";
    scenario::saveSystemStateCsv(path_a, state_a);
    scenario::saveSystemStateCsv(path_b, state_b);
    EXPECT_EQ(slurp(path_a), slurp(path_b));
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

    // CSV artifacts built from the two sweeps must agree byte-for-byte.
    const auto state_a = scenario::DatasetBuilder::systemState(serial);
    const auto state_b = scenario::DatasetBuilder::systemState(parallel);
    ASSERT_FALSE(state_a.empty());
    const std::string dir = ::testing::TempDir();
    const std::string path_a = dir + "adrias_threads1_state.csv";
    const std::string path_b = dir + "adrias_threads4_state.csv";
    scenario::saveSystemStateCsv(path_a, state_a);
    scenario::saveSystemStateCsv(path_b, state_b);
    EXPECT_EQ(slurp(path_a), slurp(path_b));
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
