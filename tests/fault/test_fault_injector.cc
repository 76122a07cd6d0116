/** @file FaultSchedule / FaultInjector determinism and window tests. */

#include <gtest/gtest.h>

#include <cmath>

#include "fault/fault.hh"

namespace adrias::fault
{
namespace
{

using testbed::CounterSample;
using testbed::kNumPerfEvents;

CounterSample
healthySample()
{
    CounterSample sample{};
    for (std::size_t e = 0; e < kNumPerfEvents; ++e)
        sample[e] = 100.0 + static_cast<double>(e);
    return sample;
}

TEST(FaultInjector, EmptyScheduleNeverFires)
{
    FaultInjector injector;
    for (SimTime t = 0; t < 500; ++t) {
        for (std::size_t k = 0; k < kNumFaultKinds; ++k) {
            EXPECT_FALSE(
                injector.firesAt(static_cast<FaultKind>(k), t));
        }
        const LinkState link = injector.linkStateAt(t, "n0-s0");
        EXPECT_FALSE(link.faulted());
    }
    EXPECT_EQ(injector.stats().total(), 0u);
}

TEST(FaultInjector, WindowBoundsAreHonored)
{
    FaultSchedule schedule;
    schedule.add({FaultKind::LinkDegrade, 100, 200, 0.5, 1.0, ""});
    FaultInjector injector(schedule);

    // Probability 1: the window fires on exactly the ticks it covers.
    EXPECT_FALSE(injector.firesAt(FaultKind::LinkDegrade, 99));
    EXPECT_TRUE(injector.firesAt(FaultKind::LinkDegrade, 100));
    EXPECT_TRUE(injector.firesAt(FaultKind::LinkDegrade, 199));
    EXPECT_FALSE(injector.firesAt(FaultKind::LinkDegrade, 200));

    EXPECT_DOUBLE_EQ(injector.magnitudeAt(FaultKind::LinkDegrade, 150),
                     0.5);
    const LinkState faulted = injector.linkStateAt(150, "n0-s0");
    EXPECT_DOUBLE_EQ(faulted.bwScale, 0.5);
    EXPECT_TRUE(faulted.faulted());
    const LinkState healthy = injector.linkStateAt(250, "n0-s0");
    EXPECT_FALSE(healthy.faulted());
}

TEST(FaultInjector, DecisionsAreDeterministicAcrossInstances)
{
    FaultSchedule schedule;
    schedule.seed = 42;
    schedule.add({FaultKind::CounterDrop, 0, 1000, 1.0, 0.3, ""});
    schedule.add({FaultKind::PredictorCrash, 200, 800, 1.0, 0.5, ""});
    schedule.add({FaultKind::LinkFlap, 100, 600, 1.0, 0.2, ""});

    FaultInjector a(schedule);
    FaultInjector b(schedule);
    for (SimTime t = 0; t < 1000; ++t) {
        EXPECT_EQ(a.firesAt(FaultKind::CounterDrop, t),
                  b.firesAt(FaultKind::CounterDrop, t));
        EXPECT_EQ(a.firesAt(FaultKind::PredictorCrash, t, 7),
                  b.firesAt(FaultKind::PredictorCrash, t, 7));
        EXPECT_EQ(a.firesAt(FaultKind::LinkFlap, t),
                  b.firesAt(FaultKind::LinkFlap, t));
    }
}

TEST(FaultInjector, QueryOrderDoesNotChangeDecisions)
{
    FaultSchedule schedule;
    schedule.seed = 7;
    schedule.add({FaultKind::CounterDrop, 0, 400, 1.0, 0.4, ""});

    // Forward vs backward sweeps must agree tick by tick.
    FaultInjector forward(schedule);
    FaultInjector backward(schedule);
    std::vector<bool> fwd, bwd(400);
    for (SimTime t = 0; t < 400; ++t)
        fwd.push_back(forward.firesAt(FaultKind::CounterDrop, t));
    for (SimTime t = 399; t >= 0; --t)
        bwd[static_cast<std::size_t>(t)] =
            backward.firesAt(FaultKind::CounterDrop, t);
    EXPECT_EQ(fwd, std::vector<bool>(bwd.begin(), bwd.end()));
}

TEST(FaultInjector, SeedChangesTheFiringPattern)
{
    FaultSchedule one;
    one.seed = 1;
    one.add({FaultKind::CounterDrop, 0, 2000, 1.0, 0.5, ""});
    FaultSchedule two = one;
    two.seed = 2;

    FaultInjector a(one), b(two);
    std::size_t differing = 0;
    for (SimTime t = 0; t < 2000; ++t)
        differing += a.firesAt(FaultKind::CounterDrop, t) !=
                     b.firesAt(FaultKind::CounterDrop, t);
    EXPECT_GT(differing, 200u); // ~50% expected
}

TEST(FaultInjector, ProbabilityScalesFiringRate)
{
    FaultSchedule schedule;
    schedule.add({FaultKind::CounterDrop, 0, 4000, 1.0, 0.25, ""});
    FaultInjector injector(schedule);
    std::size_t fired = 0;
    for (SimTime t = 0; t < 4000; ++t)
        fired += injector.firesAt(FaultKind::CounterDrop, t);
    EXPECT_NEAR(static_cast<double>(fired) / 4000.0, 0.25, 0.05);
}

TEST(FaultInjector, DropTakesPriorityAndCountsTally)
{
    FaultSchedule schedule;
    schedule.add({FaultKind::CounterDrop, 0, 10, 1.0, 1.0, ""});
    schedule.add({FaultKind::CounterCorrupt, 0, 10, 1.0, 1.0, ""});
    FaultInjector injector(schedule);

    CounterSample sample = healthySample();
    const CounterSample previous = healthySample();
    EXPECT_EQ(injector.applyCounterFaults(sample, &previous, 3),
              CounterAction::Drop);
    EXPECT_EQ(injector.stats().samplesDropped, 1u);
    // Dropped sample is untouched (the caller discards it).
    EXPECT_DOUBLE_EQ(sample[0], 100.0);
}

TEST(FaultInjector, CorruptionPoisonsExactlyOneEventDeterministically)
{
    FaultSchedule schedule;
    schedule.add({FaultKind::CounterCorrupt, 0, 100, 1.0, 1.0, ""});

    FaultInjector a(schedule);
    FaultInjector b(schedule);
    for (SimTime t = 0; t < 100; ++t) {
        CounterSample sample_a = healthySample();
        CounterSample sample_b = healthySample();
        ASSERT_EQ(a.applyCounterFaults(sample_a, nullptr, t),
                  CounterAction::Corrupt);
        ASSERT_EQ(b.applyCounterFaults(sample_b, nullptr, t),
                  CounterAction::Corrupt);
        std::size_t bad = 0;
        for (std::size_t e = 0; e < kNumPerfEvents; ++e) {
            const bool invalid_a =
                !std::isfinite(sample_a[e]) || sample_a[e] < 0.0;
            const bool invalid_b =
                !std::isfinite(sample_b[e]) || sample_b[e] < 0.0;
            EXPECT_EQ(invalid_a, invalid_b);
            bad += invalid_a;
        }
        EXPECT_EQ(bad, 1u);
    }
    EXPECT_EQ(a.stats().samplesCorrupted, 100u);
}

TEST(FaultInjector, StaleRepeatsPreviousSampleAndDegradesOnFirstTick)
{
    FaultSchedule schedule;
    schedule.add({FaultKind::CounterStale, 0, 10, 1.0, 1.0, ""});
    FaultInjector injector(schedule);

    CounterSample first = healthySample();
    EXPECT_EQ(injector.applyCounterFaults(first, nullptr, 0),
              CounterAction::Drop); // nothing to repeat yet

    CounterSample previous = healthySample();
    previous[2] = 777.0;
    CounterSample sample = healthySample();
    EXPECT_EQ(injector.applyCounterFaults(sample, &previous, 1),
              CounterAction::Stale);
    EXPECT_DOUBLE_EQ(sample[2], 777.0);
    EXPECT_EQ(injector.stats().samplesStale, 1u);
}

TEST(FaultInjector, PredictorFaultHelpers)
{
    FaultSchedule schedule;
    schedule.add({FaultKind::PredictorCrash, 100, 200, 1.0, 1.0, ""});
    schedule.add({FaultKind::PredictorLatency, 300, 400, 500.0, 1.0, ""});
    FaultInjector injector(schedule);

    EXPECT_FALSE(injector.predictorCrashAt(50, 0));
    EXPECT_TRUE(injector.predictorCrashAt(150, 0));
    EXPECT_EQ(injector.stats().predictorCrashes, 1u);

    EXPECT_DOUBLE_EQ(injector.predictorLatencyMsAt(50, 0, 2.0), 2.0);
    EXPECT_DOUBLE_EQ(injector.predictorLatencyMsAt(350, 0, 2.0), 500.0);
    EXPECT_EQ(injector.stats().predictorLatencySpikes, 1u);
}

TEST(FaultInjector, RejectsMalformedWindows)
{
    FaultSchedule backwards;
    backwards.add({FaultKind::LinkDegrade, 200, 100, 0.5, 1.0, ""});
    EXPECT_THROW(FaultInjector{backwards}, std::runtime_error);

    FaultSchedule bad_probability;
    bad_probability.add({FaultKind::CounterDrop, 0, 10, 1.0, 1.5, ""});
    EXPECT_THROW(FaultInjector{bad_probability}, std::runtime_error);

    FaultSchedule bad_magnitude;
    bad_magnitude.add({FaultKind::LinkDegrade, 0, 10, 0.0, 1.0, ""});
    EXPECT_THROW(FaultInjector{bad_magnitude}, std::runtime_error);
}

} // namespace
} // namespace adrias::fault
