/** @file Tests for scenario generation and execution. */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/io/binary.hh"
#include "scenario/engine.hh"
#include "scenario/runner.hh"

namespace adrias::scenario
{
namespace
{

ScenarioConfig
shortConfig(std::uint64_t seed = 3, SimTime duration = 600)
{
    ScenarioConfig config;
    config.durationSec = duration;
    config.spawnMinSec = 5;
    config.spawnMaxSec = 20;
    config.seed = seed;
    return config;
}

TEST(ScenarioRunner, ValidatesConfig)
{
    ScenarioConfig bad = shortConfig();
    bad.durationSec = 0;
    EXPECT_THROW(ScenarioRunner{bad}, std::runtime_error);

    ScenarioConfig bad2 = shortConfig();
    bad2.spawnMaxSec = 1;
    bad2.spawnMinSec = 5;
    EXPECT_THROW(ScenarioRunner{bad2}, std::runtime_error);

    ScenarioConfig bad3 = shortConfig();
    bad3.ibenchFraction = 0.8;
    bad3.lcFraction = 0.4;
    EXPECT_THROW(ScenarioRunner{bad3}, std::runtime_error);
}

TEST(ScenarioRunner, TraceCoversEveryTick)
{
    ScenarioRunner runner(shortConfig());
    RandomPlacement policy(5);
    const ScenarioResult result = runner.run(policy);
    EXPECT_EQ(result.trace.size(), 600u);
    EXPECT_EQ(result.concurrency.size(), 600u);
}

TEST(ScenarioRunner, DeterministicForSameSeed)
{
    RandomPlacement policy_a(5), policy_b(5);
    const auto a = ScenarioRunner(shortConfig(11)).run(policy_a);
    const auto b = ScenarioRunner(shortConfig(11)).run(policy_b);
    ASSERT_EQ(a.records.size(), b.records.size());
    for (std::size_t i = 0; i < a.records.size(); ++i) {
        EXPECT_EQ(a.records[i].name, b.records[i].name);
        EXPECT_EQ(a.records[i].mode, b.records[i].mode);
        EXPECT_DOUBLE_EQ(a.records[i].execTimeSec,
                         b.records[i].execTimeSec);
    }
    EXPECT_DOUBLE_EQ(a.totalRemoteTrafficGB, b.totalRemoteTrafficGB);
}

TEST(ScenarioRunner, DifferentSeedsDiffer)
{
    RandomPlacement policy_a(5), policy_b(5);
    const auto a = ScenarioRunner(shortConfig(1)).run(policy_a);
    const auto b = ScenarioRunner(shortConfig(2)).run(policy_b);
    // Completion counts or traffic will differ with overwhelming odds.
    EXPECT_TRUE(a.records.size() != b.records.size() ||
                a.totalRemoteTrafficGB != b.totalRemoteTrafficGB);
}

TEST(ScenarioRunner, ProducesAllWorkloadClasses)
{
    ScenarioConfig config = shortConfig(7, 1800);
    ScenarioRunner runner(config);
    RandomPlacement policy(5);
    const ScenarioResult result = runner.run(policy);

    std::set<WorkloadClass> classes;
    for (const auto &record : result.records)
        classes.insert(record.cls);
    EXPECT_TRUE(classes.count(WorkloadClass::BestEffort));
    EXPECT_TRUE(classes.count(WorkloadClass::Interference));
    // LC apps run for ~270-320 s, so a 1800 s scenario completes some.
    EXPECT_TRUE(classes.count(WorkloadClass::LatencyCritical));
}

TEST(ScenarioRunner, ConcurrencyRespectsCap)
{
    ScenarioConfig config = shortConfig(9, 1200);
    config.maxConcurrent = 10;
    ScenarioRunner runner(config);
    RandomPlacement policy(5);
    const ScenarioResult result = runner.run(policy);
    for (int c : result.concurrency)
        EXPECT_LE(c, 10);
}

TEST(ScenarioRunner, RecordsCarryPerformanceNumbers)
{
    ScenarioRunner runner(shortConfig(13, 1800));
    RandomPlacement policy(5);
    const ScenarioResult result = runner.run(policy);
    ASSERT_FALSE(result.records.empty());
    for (const auto &record : result.records) {
        EXPECT_GT(record.execTimeSec, 0.0);
        EXPECT_GE(record.meanSlowdown, 1.0);
        EXPECT_GE(record.completion, record.arrival);
        if (record.cls == WorkloadClass::LatencyCritical) {
            EXPECT_GT(record.p99Ms, 0.0);
            EXPECT_GE(record.p999Ms, record.p99Ms);
            EXPECT_LT(record.meanLatencyMs, record.p99Ms);
        }
        if (record.mode == MemoryMode::Local)
            EXPECT_DOUBLE_EQ(record.remoteTrafficGB, 0.0);
    }
}

TEST(ScenarioRunner, RemoteDeploymentsGenerateChannelTraffic)
{
    ScenarioRunner runner(shortConfig(17, 1200));
    RandomPlacement policy(5);
    const ScenarioResult result = runner.run(policy);
    EXPECT_GT(result.totalRemoteTrafficGB, 0.0);
}

TEST(ScenarioRunner, HistoryWindowsAttachedAfterWarmup)
{
    ScenarioRunner runner(shortConfig(19, 1200));
    RandomPlacement policy(5);
    const ScenarioResult result = runner.run(policy);
    std::size_t with_window = 0;
    for (const auto &record : result.records) {
        if (!record.historyWindow.empty()) {
            ++with_window;
            EXPECT_EQ(record.historyWindow.size(),
                      ScenarioRunner::kWindowBins);
        }
    }
    EXPECT_GT(with_window, result.records.size() / 2);
}

TEST(ScenarioRunner, RecordsOfClassFilters)
{
    ScenarioRunner runner(shortConfig(23, 1200));
    RandomPlacement policy(5);
    const ScenarioResult result = runner.run(policy);
    const auto be = result.recordsOfClass(WorkloadClass::BestEffort);
    for (const auto *record : be)
        EXPECT_EQ(record->cls, WorkloadClass::BestEffort);
    const auto lc = result.recordsOfClass(WorkloadClass::LatencyCritical);
    const auto ib = result.recordsOfClass(WorkloadClass::Interference);
    EXPECT_EQ(be.size() + lc.size() + ib.size(), result.records.size());
}

TEST(ScenarioEngineSnapshot, RejectsConcurrencyLongerThanTrace)
{
    // A well-formed 30-tick snapshot, except that node 0's concurrency
    // vector carries one entry more than its trace.
    const ScenarioConfig config = shortConfig(9, 60);
    constexpr std::size_t kTicks = 30;

    // The vector as saved is the first kTicks entries of a full run's.
    ScenarioEngine full(config);
    RandomPlacement full_policy(5);
    while (!full.finished())
        full.stepTick(full_policy);
    const ScenarioResult result = full.finish();
    const std::vector<int> saved(result.concurrency.begin(),
                                 result.concurrency.begin() + kTicks);

    ScenarioEngine engine(config);
    RandomPlacement policy(5);
    while (engine.now() < static_cast<SimTime>(kTicks))
        engine.stepTick(policy);
    io::BinaryWriter out;
    engine.saveState(out);

    io::BinaryWriter saved_bytes;
    saved_bytes.writeI32Vector(saved);
    std::vector<int> longer = saved;
    longer.push_back(longer.back());
    io::BinaryWriter longer_bytes;
    longer_bytes.writeI32Vector(longer);

    std::string snapshot = out.data();
    const std::size_t at = snapshot.find(saved_bytes.data());
    ASSERT_NE(at, std::string::npos);
    ASSERT_EQ(at, snapshot.rfind(saved_bytes.data()));
    snapshot.replace(at, saved_bytes.data().size(), longer_bytes.data());

    ScenarioEngine restored(config);
    io::BinaryReader in(snapshot);
    const Result<void> status = restored.restoreState(in);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.error().code, ErrorCode::Geometry);

    // The unmodified snapshot restores.
    ScenarioEngine intact(config);
    io::BinaryReader in_intact(out.data());
    EXPECT_TRUE(intact.restoreState(in_intact).ok());
}

TEST(HistoryWindowAt, EarlyArrivalYieldsEmpty)
{
    std::vector<testbed::CounterSample> trace(10);
    EXPECT_TRUE(historyWindowAt(trace, 0).empty());
    EXPECT_TRUE(historyWindowAt({}, 50).empty());
}

TEST(HistoryWindowAt, UsesTrailingWindow)
{
    std::vector<testbed::CounterSample> trace(300);
    for (std::size_t i = 0; i < trace.size(); ++i)
        for (double &v : trace[i])
            v = static_cast<double>(i);
    const auto seq = historyWindowAt(trace, 250);
    ASSERT_EQ(seq.size(), ScenarioRunner::kWindowBins);
    // Window is [130, 250): first bin ~134.5, last ~244.5.
    EXPECT_NEAR(seq.front().at(0, 0), 134.5, 1e-9);
    EXPECT_NEAR(seq.back().at(0, 0), 244.5, 1e-9);
}

class SpawnIntervalTest
    : public ::testing::TestWithParam<std::pair<SimTime, SimTime>>
{
};

TEST_P(SpawnIntervalTest, HigherArrivalRateRaisesConcurrency)
{
    // Property: tighter spawn intervals produce at least as much mean
    // concurrency as the loosest interval (paper Fig. 8's heavy vs
    // relaxed scenarios).
    auto run_mean = [](SimTime lo, SimTime hi) {
        ScenarioConfig config;
        config.durationSec = 1200;
        config.spawnMinSec = lo;
        config.spawnMaxSec = hi;
        config.seed = 31;
        ScenarioRunner runner(config);
        RandomPlacement policy(5);
        const auto result = runner.run(policy);
        double total = 0.0;
        for (int c : result.concurrency)
            total += c;
        return total / static_cast<double>(result.concurrency.size());
    };
    const auto [lo, hi] = GetParam();
    EXPECT_GE(run_mean(lo, hi) * 1.15, run_mean(5, 60));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SpawnIntervalTest,
    ::testing::Values(std::pair<SimTime, SimTime>{5, 20},
                      std::pair<SimTime, SimTime>{5, 40},
                      std::pair<SimTime, SimTime>{5, 60}));

} // namespace
} // namespace adrias::scenario
