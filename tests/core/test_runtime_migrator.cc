/** @file Tests for the L2 threshold migrator and migration mechanics. */

#include <gtest/gtest.h>

#include "core/adrias.hh"
#include "scenario/engine.hh"

namespace adrias::core
{
namespace
{

using scenario::RandomPlacement;
using scenario::ScenarioConfig;
using scenario::ScenarioRunner;
using workloads::WorkloadInstance;

testbed::LoadOutcome
outcomeFor(DeploymentId id, double slowdown)
{
    testbed::LoadOutcome outcome;
    outcome.id = id;
    outcome.slowdown = slowdown;
    outcome.achievedGBps = 0.1;
    return outcome;
}

TEST(MigrationMechanics, PauseThenModeSwitch)
{
    WorkloadInstance app(1, workloads::sparkBenchmark("sort"),
                         MemoryMode::Remote, 0, 3);
    EXPECT_FALSE(app.migrating());
    EXPECT_TRUE(app.requestMigration(MemoryMode::Local, 3.0));
    EXPECT_TRUE(app.migrating());

    SimTime now = 0;
    for (int t = 0; t < 3; ++t)
        app.advance(outcomeFor(1, 1.0), ++now);
    // Mode switched after the pause...
    EXPECT_FALSE(app.migrating());
    EXPECT_EQ(app.mode(), MemoryMode::Local);
    EXPECT_EQ(app.migrationCount(), 1u);

    // ...which made no progress: the run ends exactly the pause later
    // than an unpaused twin's.
    WorkloadInstance twin(2, workloads::sparkBenchmark("sort"),
                          MemoryMode::Remote, 0, 3);
    SimTime twin_now = 0;
    while (!twin.finished())
        twin.advance(outcomeFor(2, 1.0), ++twin_now);
    while (!app.finished())
        app.advance(outcomeFor(1, 1.0), ++now);
    EXPECT_DOUBLE_EQ(app.executionTimeSec(), twin.executionTimeSec() + 3.0);
}

TEST(MigrationMechanics, CopyTrafficAccountedOnChannel)
{
    WorkloadInstance app(1, workloads::sparkBenchmark("sort"),
                         MemoryMode::Remote, 0, 3);
    const double before = app.remoteTrafficGB();
    app.requestMigration(MemoryMode::Local, 4.0);
    SimTime now = 0;
    for (int t = 0; t < 4; ++t)
        app.advance(outcomeFor(1, 1.0), ++now);
    // The footprint crossed the channel during the pause.
    EXPECT_NEAR(app.remoteTrafficGB() - before,
                workloads::sparkBenchmark("sort").memoryFootprintGb +
                    4 * 0.1,
                1e-6);
}

TEST(MigrationMechanics, NoOpCases)
{
    WorkloadInstance app(1, workloads::sparkBenchmark("sort"),
                         MemoryMode::Remote, 0, 3);
    EXPECT_FALSE(app.requestMigration(MemoryMode::Remote, 2.0));
    EXPECT_TRUE(app.requestMigration(MemoryMode::Local, 2.0));
    EXPECT_FALSE(app.requestMigration(MemoryMode::Local, 2.0));
    EXPECT_THROW(app.requestMigration(MemoryMode::Local, 0.0),
                 std::runtime_error);
}

TEST(ThresholdMigrator, ConfigValidation)
{
    MigratorConfig bad;
    bad.slowdownThreshold = 1.0;
    EXPECT_THROW(ThresholdMigrator{bad}, std::runtime_error);
    MigratorConfig bad2;
    bad2.ewmaAlpha = 0.0;
    EXPECT_THROW(ThresholdMigrator{bad2}, std::runtime_error);
    MigratorConfig bad3;
    bad3.copyBandwidthGBps = 0.0;
    EXPECT_THROW(ThresholdMigrator{bad3}, std::runtime_error);
}

TEST(ThresholdMigrator, DemotesSufferingRemoteApp)
{
    MigratorConfig config;
    config.slowdownThreshold = 1.5;
    config.warmupTicks = 3;
    ThresholdMigrator migrator(config);

    WorkloadInstance app(7, workloads::sparkBenchmark("nweight"),
                         MemoryMode::Remote, 0, 3);
    testbed::TickResult tick;
    tick.outcomes.push_back(outcomeFor(7, 4.0)); // heavy contention

    SimTime now = 0;
    for (int t = 0; t < 20 && !app.migrating(); ++t) {
        app.advance(tick.outcomes[0], ++now);
        migrator.onTick({&app}, tick, now);
    }
    EXPECT_TRUE(app.migrating());
}

TEST(ThresholdMigrator, LeavesHealthyAndLocalAppsAlone)
{
    MigratorConfig config;
    config.slowdownThreshold = 1.5;
    config.warmupTicks = 2;
    ThresholdMigrator migrator(config);

    WorkloadInstance healthy(1, workloads::sparkBenchmark("gmm"),
                             MemoryMode::Remote, 0, 3);
    WorkloadInstance local(2, workloads::sparkBenchmark("nweight"),
                           MemoryMode::Local, 0, 3);
    testbed::TickResult tick;
    tick.outcomes.push_back(outcomeFor(1, 1.05));
    tick.outcomes.push_back(outcomeFor(2, 5.0));

    SimTime now = 0;
    for (int t = 0; t < 30; ++t) {
        healthy.advance(tick.outcomes[0], ++now);
        local.advance(tick.outcomes[1], now);
        migrator.onTick({&healthy, &local}, tick, now);
    }
    for (const WorkloadInstance *app : {&healthy, &local}) {
        EXPECT_FALSE(app->migrating());
        EXPECT_EQ(app->migrationCount(), 0u);
    }
    EXPECT_EQ(healthy.mode(), MemoryMode::Remote);
    EXPECT_EQ(local.mode(), MemoryMode::Local);
}

TEST(ThresholdMigrator, RespectsPerAppMigrationCap)
{
    MigratorConfig config;
    config.slowdownThreshold = 1.2;
    config.warmupTicks = 1;
    config.maxMigrationsPerApp = 1;
    ThresholdMigrator migrator(config);

    WorkloadInstance app(9, workloads::sparkBenchmark("sort"),
                         MemoryMode::Remote, 0, 3);
    testbed::TickResult tick;
    tick.outcomes.push_back(outcomeFor(9, 6.0));

    SimTime now = 0;
    for (int t = 0; t < 60 && !app.finished(); ++t) {
        app.advance(tick.outcomes[0], ++now);
        migrator.onTick({&app}, tick, now);
    }
    // Migrations requested: the completed ones plus one in flight.
    EXPECT_EQ(app.migrationCount() + (app.migrating() ? 1u : 0u), 1u);
}

TEST(ThresholdMigrator, EndToEndRescuesRecklessPlacement)
{
    // Random placement strands bandwidth-hungry apps on a congested
    // channel; the L2 migrator must improve the BE tail.
    ScenarioConfig config;
    config.durationSec = 1500;
    config.spawnMinSec = 5;
    config.spawnMaxSec = 15;
    config.seed = 515;

    std::size_t migrated = 0;
    auto be_p75 = [&](scenario::RuntimePolicy *runtime) {
        ScenarioRunner runner(config);
        RandomPlacement policy(5);
        const auto result = runner.run(policy, runtime);
        std::vector<double> times;
        for (const auto &record : result.records) {
            if (record.cls == WorkloadClass::BestEffort)
                times.push_back(record.execTimeSec);
            migrated += record.migrations;
        }
        return stats::quantile(times, 0.75);
    };

    MigratorConfig migrator_config;
    migrator_config.slowdownThreshold = 2.0;
    ThresholdMigrator migrator(migrator_config);
    const double with = be_p75(&migrator);
    EXPECT_GT(migrated, 0u);
    const double without = be_p75(nullptr);
    EXPECT_LT(with, without);
}

TEST(ThresholdMigrator, RecordsCarryMigrationCounts)
{
    ScenarioConfig config;
    config.durationSec = 1200;
    config.spawnMinSec = 5;
    config.spawnMaxSec = 15;
    config.seed = 616;
    ScenarioRunner runner(config);
    RandomPlacement policy(5);
    MigratorConfig migrator_config;
    migrator_config.slowdownThreshold = 1.8;
    ThresholdMigrator migrator(migrator_config);
    const auto result = runner.run(policy, &migrator);

    std::size_t migrated_records = 0;
    for (const auto &record : result.records)
        migrated_records += record.migrations > 0;
    EXPECT_GT(migrated_records, 0u);
}

TEST(ThresholdMigrator, HookIsRefusedOnMultiNodeRack)
{
    // The L2 hook sees node 0's channel only, so a rack run refuses it
    // before the first tick changes anything.
    ScenarioConfig config;
    config.topology = "rack-2x2-cxl";
    scenario::ScenarioEngine engine(config);
    RandomPlacement policy(5);
    ThresholdMigrator migrator;
    EXPECT_THROW(engine.stepTick(policy, &migrator), std::runtime_error);
    EXPECT_EQ(engine.now(), 0);
    engine.stepTick(policy);
    EXPECT_EQ(engine.now(), 1);
}

} // namespace
} // namespace adrias::core
