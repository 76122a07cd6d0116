/** @file Unit tests for the workload runtime (WorkloadInstance). */

#include <gtest/gtest.h>

#include "testbed/testbed.hh"
#include "workloads/workload.hh"

namespace adrias::workloads
{
namespace
{

testbed::LoadOutcome
outcomeWithSlowdown(DeploymentId id, double slowdown,
                    double achieved = 0.1)
{
    testbed::LoadOutcome outcome;
    outcome.id = id;
    outcome.slowdown = slowdown;
    outcome.achievedGBps = achieved;
    return outcome;
}

TEST(WorkloadInstance, BeFinishesAtBaseDurationWhenUnimpeded)
{
    WorkloadSpec spec = sparkBenchmark("wordcount"); // 45 s
    WorkloadInstance app(1, spec, MemoryMode::Local, 100, 1);
    SimTime now = 100;
    while (!app.finished())
        app.advance(outcomeWithSlowdown(1, 1.0), ++now);
    EXPECT_EQ(app.executionTimeSec(), 45.0);
}

TEST(WorkloadInstance, BeSlowdownStretchesExecution)
{
    WorkloadSpec spec = sparkBenchmark("wordcount");
    WorkloadInstance app(2, spec, MemoryMode::Remote, 0, 1);
    SimTime now = 0;
    while (!app.finished())
        app.advance(outcomeWithSlowdown(2, 1.5), ++now);
    EXPECT_NEAR(app.executionTimeSec(), 45.0 * 1.5, 1.5);
    EXPECT_NEAR(app.meanSlowdown(), 1.5, 1e-9);
}

TEST(WorkloadInstance, AdvanceAfterFinishPanics)
{
    WorkloadSpec spec = sparkBenchmark("wordcount");
    WorkloadInstance app(1, spec, MemoryMode::Local, 0, 1);
    SimTime now = 0;
    while (!app.finished())
        app.advance(outcomeWithSlowdown(1, 1.0), ++now);
    EXPECT_THROW(app.advance(outcomeWithSlowdown(1, 1.0), ++now),
                 std::logic_error);
}

TEST(WorkloadInstance, WrongOutcomeIdPanics)
{
    WorkloadInstance app(1, sparkBenchmark("sort"), MemoryMode::Local, 0,
                         1);
    EXPECT_THROW(app.advance(outcomeWithSlowdown(2, 1.0), 1),
                 std::logic_error);
}

TEST(WorkloadInstance, RemoteTrafficAccumulatesOnlyWhenRemote)
{
    WorkloadInstance local_app(1, sparkBenchmark("sort"),
                               MemoryMode::Local, 0, 1);
    WorkloadInstance remote_app(2, sparkBenchmark("sort"),
                                MemoryMode::Remote, 0, 1);
    for (SimTime t = 1; t <= 10; ++t) {
        local_app.advance(outcomeWithSlowdown(1, 1.0, 0.5), t);
        remote_app.advance(outcomeWithSlowdown(2, 1.0, 0.5), t);
    }
    EXPECT_DOUBLE_EQ(local_app.remoteTrafficGB(), 0.0);
    EXPECT_NEAR(remote_app.remoteTrafficGB(), 5.0, 1e-9);
}

TEST(WorkloadInstance, InterferenceRunsWallClockDuration)
{
    WorkloadSpec spec = ibenchSpec(IBenchKind::L3); // 120 s
    WorkloadInstance trasher(3, spec, MemoryMode::Local, 50, 1);
    SimTime now = 50;
    // Even with huge slowdown a trasher ends after its wall-clock time.
    while (!trasher.finished())
        trasher.advance(outcomeWithSlowdown(3, 10.0), ++now);
    EXPECT_EQ(trasher.executionTimeSec(), 120.0);
}

TEST(WorkloadInstance, LcServesRequestsAndTracksTail)
{
    WorkloadSpec spec = redisSpec();
    WorkloadInstance server(4, spec, MemoryMode::Local, 0, 42);
    SimTime now = 0;
    while (!server.finished() && now < 1000)
        server.advance(outcomeWithSlowdown(4, 1.0), ++now);
    EXPECT_TRUE(server.finished());
    // 8M requests at 30k/s -> ~267 s.
    EXPECT_NEAR(server.executionTimeSec(), 267.0, 3.0);
    EXPECT_GT(server.tailLatencyMs(0.99), server.tailLatencyMs(0.5));
    EXPECT_GT(server.tailLatencyMs(0.999), server.tailLatencyMs(0.99));
}

TEST(WorkloadInstance, LcSlowdownInflatesTailSuperlinearly)
{
    WorkloadSpec spec = redisSpec();
    WorkloadInstance fast(5, spec, MemoryMode::Local, 0, 7);
    WorkloadInstance slow(6, spec, MemoryMode::Local, 0, 7);
    for (SimTime t = 1; t <= 60; ++t) {
        fast.advance(outcomeWithSlowdown(5, 1.0), t);
        slow.advance(outcomeWithSlowdown(6, 1.4), t);
    }
    // Queueing makes the tail grow faster than the raw slowdown.
    EXPECT_GT(slow.tailLatencyMs(0.99) / fast.tailLatencyMs(0.99), 1.4);
}

TEST(WorkloadInstance, LcLoadFactorScalesPressureAndLatency)
{
    WorkloadSpec spec = memcachedSpec();
    WorkloadInstance nominal(7, spec, MemoryMode::Local, 0, 9, 1.0);
    WorkloadInstance heavy(8, spec, MemoryMode::Local, 0, 9, 1.5);

    const auto nominal_load = nominal.load();
    const auto heavy_load = heavy.load();
    EXPECT_NEAR(heavy_load.memDemandGBps / nominal_load.memDemandGBps,
                1.5, 1e-9);

    for (SimTime t = 1; t <= 60; ++t) {
        nominal.advance(outcomeWithSlowdown(7, 1.0), t);
        heavy.advance(outcomeWithSlowdown(8, 1.0), t);
    }
    EXPECT_GT(heavy.tailLatencyMs(0.99), nominal.tailLatencyMs(0.99));
}

TEST(WorkloadInstance, RejectsNonPositiveLoadFactor)
{
    EXPECT_THROW(WorkloadInstance(1, redisSpec(), MemoryMode::Local, 0, 1,
                                  0.0),
                 std::runtime_error);
}

TEST(WorkloadInstance, BeLoadIgnoresLoadFactor)
{
    WorkloadInstance app(9, sparkBenchmark("sort"), MemoryMode::Local, 0,
                         1, 2.0);
    EXPECT_DOUBLE_EQ(app.load().memDemandGBps,
                     sparkBenchmark("sort").memDemandGBps);
}

TEST(EndToEnd, IsolatedRemoteVsLocalExecutionTimes)
{
    // Drive two full runs through the real testbed: the remote run of a
    // bandwidth-hungry app must take noticeably longer.
    testbed::Testbed bed;
    bed.setNoise(0.0);
    auto run = [&](MemoryMode mode) {
        WorkloadInstance app(1, sparkBenchmark("lr"), mode, 0, 3);
        SimTime now = 0;
        while (!app.finished()) {
            const auto result = bed.tick({app.load()});
            app.advance(result.outcomes.at(0), ++now);
        }
        return app.executionTimeSec();
    };
    const double local = run(MemoryMode::Local);
    const double remote = run(MemoryMode::Remote);
    EXPECT_NEAR(local, 65.0, 3.0);
    EXPECT_GT(remote / local, 1.5);
}

} // namespace
} // namespace adrias::workloads
