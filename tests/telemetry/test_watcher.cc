/** @file Unit tests for the Watcher and trace windowing helpers. */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "telemetry/watcher.hh"

namespace adrias::telemetry
{
namespace
{

using testbed::CounterSample;
using testbed::kNumPerfEvents;

CounterSample
constantSample(double value)
{
    CounterSample s{};
    for (double &v : s)
        v = value;
    return s;
}

TEST(Watcher, StartsEmpty)
{
    Watcher watcher(10);
    EXPECT_EQ(watcher.sampleCount(), 0u);
    EXPECT_THROW(watcher.latest(), std::logic_error);
    EXPECT_THROW(watcher.binnedWindow(5, 2), std::runtime_error);
}

TEST(Watcher, RecordsAndReportsLatest)
{
    Watcher watcher(10);
    watcher.record(constantSample(1.0));
    watcher.record(constantSample(2.0));
    EXPECT_EQ(watcher.sampleCount(), 2u);
    EXPECT_DOUBLE_EQ(watcher.latest()[0], 2.0);
}

TEST(Watcher, MeanOverTrailingWindow)
{
    // One bin over a window the history covers is the plain mean of
    // the trailing samples.
    Watcher watcher(10);
    for (double v : {1.0, 2.0, 3.0, 4.0})
        watcher.record(constantSample(v));
    EXPECT_DOUBLE_EQ(watcher.binnedWindow(2, 1)[0].at(0, 0), 3.5);
    EXPECT_DOUBLE_EQ(watcher.binnedWindow(4, 1)[0].at(0, 0), 2.5);
}

TEST(Watcher, BinnedWindowShape)
{
    Watcher watcher(200);
    for (int i = 0; i < 120; ++i)
        watcher.record(constantSample(i));
    const auto seq = watcher.binnedWindow(120, 12);
    ASSERT_EQ(seq.size(), 12u);
    for (const auto &step : seq) {
        EXPECT_EQ(step.rows(), 1u);
        EXPECT_EQ(step.cols(), kNumPerfEvents);
    }
    // Bins are chronological: first bin averages 0..9, last 110..119.
    EXPECT_NEAR(seq.front().at(0, 0), 4.5, 1e-9);
    EXPECT_NEAR(seq.back().at(0, 0), 114.5, 1e-9);
}

TEST(Watcher, ColdStartPadsWithOldestSample)
{
    Watcher watcher(200);
    watcher.record(constantSample(5.0));
    watcher.record(constantSample(7.0));
    const auto seq = watcher.binnedWindow(120, 12);
    ASSERT_EQ(seq.size(), 12u);
    // Early bins see only the padded oldest value.
    EXPECT_DOUBLE_EQ(seq.front().at(0, 0), 5.0);
    // The last bin includes the newest sample.
    EXPECT_GT(seq.back().at(0, 0), 5.0);
}

TEST(Watcher, EvictsBeyondCapacity)
{
    Watcher watcher(4);
    for (double v = 0.0; v < 10.0; ++v)
        watcher.record(constantSample(v));
    EXPECT_EQ(watcher.sampleCount(), 4u);
    EXPECT_DOUBLE_EQ(watcher.binnedWindow(4, 1)[0].at(0, 0), 7.5);
}

TEST(Watcher, ClearEmptiesHistory)
{
    Watcher watcher(4);
    watcher.record(constantSample(1.0));
    watcher.clear();
    EXPECT_EQ(watcher.sampleCount(), 0u);
}

TEST(Watcher, RepairsInvalidEventsWithLastGoodValue)
{
    Watcher watcher(10);
    watcher.record(constantSample(3.0));

    CounterSample poisoned = constantSample(8.0);
    poisoned[1] = std::nan("");
    poisoned[4] = -2.0;
    watcher.record(poisoned);

    const CounterSample &seen = watcher.latest();
    EXPECT_DOUBLE_EQ(seen[0], 8.0);
    EXPECT_DOUBLE_EQ(seen[1], 3.0); // last good
    EXPECT_DOUBLE_EQ(seen[4], 3.0);

    const WatcherHealth &health = watcher.health();
    EXPECT_EQ(health.samplesAccepted, 2u);
    EXPECT_EQ(health.samplesRepaired, 1u);
    EXPECT_EQ(health.eventsRepaired, 2u);
}

TEST(Watcher, RepairsWithZeroBeforeFirstGoodValue)
{
    Watcher watcher(10);
    CounterSample poisoned = constantSample(1.0);
    poisoned[2] = std::numeric_limits<double>::infinity();
    watcher.record(poisoned);
    EXPECT_DOUBLE_EQ(watcher.latest()[2], 0.0);
    EXPECT_EQ(watcher.health().eventsRepaired, 1u);
}

TEST(Watcher, DroppedTicksPadWithLastSampleAndTrackStaleness)
{
    Watcher watcher(10);
    watcher.record(constantSample(6.0));
    watcher.recordDropped();
    watcher.recordDropped();

    EXPECT_EQ(watcher.sampleCount(), 3u); // time stays aligned
    EXPECT_DOUBLE_EQ(watcher.latest()[0], 6.0);

    const WatcherHealth &health = watcher.health();
    EXPECT_EQ(health.samplesDropped, 2u);
    EXPECT_EQ(health.stalenessSec, 2u);
    EXPECT_EQ(health.maxStalenessSec, 2u);

    // A fresh sample resets staleness but not the historical maximum.
    watcher.record(constantSample(7.0));
    EXPECT_EQ(watcher.health().stalenessSec, 0u);
    EXPECT_EQ(watcher.health().maxStalenessSec, 2u);
}

TEST(Watcher, FullyPoisonedSampleKeepsStalenessStreakOpen)
{
    // Regression: a sample whose every event needed repair used to
    // count as fresh and reset stalenessSec, hiding a telemetry outage
    // behind the repair path.
    Watcher watcher(10);
    watcher.record(constantSample(5.0));
    watcher.recordDropped();
    watcher.recordDropped();

    CounterSample poisoned;
    poisoned.fill(std::nan(""));
    watcher.record(poisoned);

    const WatcherHealth health = watcher.health();
    EXPECT_EQ(health.samplesAccepted, 2u);
    EXPECT_EQ(health.samplesRepaired, 1u);
    EXPECT_EQ(health.stalenessSec, 3u);
    EXPECT_EQ(health.maxStalenessSec, 3u);

    // History still advances with the repaired (last-good) values.
    EXPECT_EQ(watcher.sampleCount(), 4u);
    EXPECT_DOUBLE_EQ(watcher.latest()[0], 5.0);

    // First sample carrying any genuine event closes the streak.
    watcher.record(constantSample(6.0));
    EXPECT_EQ(watcher.health().stalenessSec, 0u);
    EXPECT_EQ(watcher.health().maxStalenessSec, 3u);
}

TEST(Watcher, MaxStalenessCapturesStreakStillOpenAtEndOfRun)
{
    // The worst streak must be visible even when no fresh sample ever
    // arrives to close it — health() is typically read at end-of-run.
    Watcher watcher(10);
    watcher.record(constantSample(2.0));
    watcher.recordDropped();
    watcher.recordDropped();
    watcher.recordDropped();
    EXPECT_EQ(watcher.health().stalenessSec, 3u);
    EXPECT_EQ(watcher.health().maxStalenessSec, 3u);

    // An open streak extended by a fully-poisoned sample still counts.
    CounterSample poisoned;
    poisoned.fill(-1.0);
    watcher.record(poisoned);
    EXPECT_EQ(watcher.health().maxStalenessSec, 4u);
}

TEST(Watcher, ColdStartDropoutPadsWithZeros)
{
    Watcher watcher(10);
    watcher.recordDropped();
    EXPECT_EQ(watcher.sampleCount(), 1u);
    EXPECT_DOUBLE_EQ(watcher.latest()[0], 0.0);
}

TEST(Watcher, ClearResetsHealth)
{
    Watcher watcher(10);
    watcher.recordDropped();
    CounterSample poisoned = constantSample(1.0);
    poisoned[0] = std::nan("");
    watcher.record(poisoned);
    watcher.clear();
    EXPECT_EQ(watcher.health().samplesDropped, 0u);
    EXPECT_EQ(watcher.health().samplesRepaired, 0u);
    EXPECT_EQ(watcher.health().maxStalenessSec, 0u);
}

TEST(MeanOverSpan, ComputesPerEventMeans)
{
    std::vector<CounterSample> trace;
    for (double v : {2.0, 4.0, 6.0})
        trace.push_back(constantSample(v));
    const CounterSample mean = meanOverSpan(trace, 0, 3);
    for (std::size_t e = 0; e < kNumPerfEvents; ++e)
        EXPECT_DOUBLE_EQ(mean[e], 4.0);
    EXPECT_DOUBLE_EQ(meanOverSpan(trace, 1, 2)[0], 4.0);
}

TEST(MeanOverSpan, InvalidSpanPanics)
{
    std::vector<CounterSample> trace{constantSample(1.0)};
    EXPECT_THROW(meanOverSpan(trace, 0, 0), std::logic_error);
    EXPECT_THROW(meanOverSpan(trace, 0, 2), std::logic_error);
}

TEST(BinSpan, ShorterSpanThanBinsStillWorks)
{
    std::vector<CounterSample> trace;
    for (double v : {1.0, 2.0, 3.0})
        trace.push_back(constantSample(v));
    const auto seq = binSpan(trace, 0, 3, 12);
    ASSERT_EQ(seq.size(), 12u);
    // Monotone non-decreasing (repeats allowed when bins < samples).
    for (std::size_t i = 1; i < seq.size(); ++i)
        EXPECT_GE(seq[i].at(0, 0), seq[i - 1].at(0, 0));
}

TEST(BinSpan, ValidatesArguments)
{
    std::vector<CounterSample> trace{constantSample(1.0),
                                     constantSample(2.0)};
    EXPECT_THROW(binSpan(trace, 1, 1, 4), std::logic_error);
    EXPECT_THROW(binSpan(trace, 0, 5, 4), std::logic_error);
    EXPECT_THROW(binSpan(trace, 0, 2, 0), std::runtime_error);
}

} // namespace
} // namespace adrias::telemetry
