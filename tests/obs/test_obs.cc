/**
 * @file
 * Unit tests for the observability layer (DESIGN.md §10): metric
 * registration and recording, histogram merge semantics, tracer
 * export formats and the runtime/compile-time gating contract.
 *
 * The suite is compiled in both flavors.  With ADRIAS_OBS=ON it
 * exercises the full layer; with ADRIAS_OBS=OFF it proves the layer is
 * inert — switches cannot arm, metrics never move, the tracer records
 * nothing (the `ctest -L obs` gate for the compiled-out path).
 */

#include <cmath>
#include <sstream>

#include <gtest/gtest.h>

#include "obs/json.hh"
#include "obs/obs.hh"

namespace
{

using namespace adrias;

/** Arm obs for a test and guarantee a clean disarmed exit. */
class ObsTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        obs::resetAll();
        obs::setEnabled(true);
        obs::Tracer::global().setEnabled(true);
    }

    void
    TearDown() override
    {
        obs::Tracer::global().setEnabled(false);
        obs::setEnabled(false);
        obs::resetAll();
    }
};

#if ADRIAS_OBS_ENABLED

TEST_F(ObsTest, CounterAccumulatesAndResets)
{
    obs::Counter &c = obs::MetricsRegistry::global().counter("t.counter");
    EXPECT_EQ(c.get(), 0u);
    c.add();
    c.add(41);
    EXPECT_EQ(c.get(), 42u);
    c.reset();
    EXPECT_EQ(c.get(), 0u);
}

TEST_F(ObsTest, GaugeIsLastWriteWins)
{
    obs::Gauge &g = obs::MetricsRegistry::global().gauge("t.gauge");
    g.set(3.5);
    g.set(-1.25);
    EXPECT_DOUBLE_EQ(g.get(), -1.25);
}

TEST_F(ObsTest, RegistryReturnsStableReferences)
{
    obs::MetricsRegistry &reg = obs::MetricsRegistry::global();
    obs::Counter &first = reg.counter("t.stable");
    first.add(7);
    obs::Counter &second = reg.counter("t.stable");
    EXPECT_EQ(&first, &second);
    reg.reset();
    // reset() zeroes values but never invalidates references.
    EXPECT_EQ(&reg.counter("t.stable"), &first);
    EXPECT_EQ(first.get(), 0u);
}

TEST_F(ObsTest, EmptyHistogramSnapshotIsAllNaN)
{
    obs::Histogram &h =
        obs::MetricsRegistry::global().histogram("t.empty_hist");
    const obs::HistogramSnapshot snap = h.snapshot();
    EXPECT_EQ(snap.count, 0u);
    EXPECT_TRUE(std::isnan(snap.mean));
    EXPECT_TRUE(std::isnan(snap.min));
    EXPECT_TRUE(std::isnan(snap.max));
    EXPECT_TRUE(std::isnan(snap.p50));
    EXPECT_TRUE(std::isnan(snap.p99));
    EXPECT_EQ(snap.firstSim, obs::Histogram::kNoSimTime);
    EXPECT_EQ(snap.lastSim, obs::Histogram::kNoSimTime);
}

TEST_F(ObsTest, HistogramTracksMomentsQuantilesAndSimSpan)
{
    obs::Histogram &h =
        obs::MetricsRegistry::global().histogram("t.hist");
    for (int i = 1; i <= 1000; ++i)
        h.observe(static_cast<double>(i), static_cast<SimTime>(i + 10));
    const obs::HistogramSnapshot snap = h.snapshot();
    EXPECT_EQ(snap.count, 1000u);
    EXPECT_DOUBLE_EQ(snap.mean, 500.5);
    EXPECT_DOUBLE_EQ(snap.min, 1.0);
    EXPECT_DOUBLE_EQ(snap.max, 1000.0);
    // Reservoir quantiles are estimates; 1..1000 is uniform.
    EXPECT_NEAR(snap.p50, 500.0, 100.0);
    EXPECT_GT(snap.p99, snap.p50);
    EXPECT_EQ(snap.firstSim, 11);
    EXPECT_EQ(snap.lastSim, 1010);
}

TEST_F(ObsTest, HistogramObservationsAreSeedPinnedDeterministic)
{
    obs::Histogram a;
    obs::Histogram b;
    for (int i = 0; i < 5000; ++i) {
        const double v = std::sin(i) * 100.0;
        a.observe(v);
        b.observe(v);
    }
    const obs::HistogramSnapshot sa = a.snapshot();
    const obs::HistogramSnapshot sb = b.snapshot();
    // Same seed, same stream: identical reservoirs, identical quantiles.
    EXPECT_DOUBLE_EQ(sa.p50, sb.p50);
    EXPECT_DOUBLE_EQ(sa.p90, sb.p90);
    EXPECT_DOUBLE_EQ(sa.p99, sb.p99);
}

TEST_F(ObsTest, HistogramResetReturnsToEmpty)
{
    obs::Histogram h;
    h.observe(9.0, 3);
    h.reset();
    const obs::HistogramSnapshot snap = h.snapshot();
    EXPECT_EQ(snap.count, 0u);
    EXPECT_TRUE(std::isnan(snap.mean));
    EXPECT_EQ(snap.firstSim, obs::Histogram::kNoSimTime);
}

TEST_F(ObsTest, TracerRecordsSimAndWallEventsOnSeparateClockLanes)
{
    obs::Tracer &tracer = obs::Tracer::global();
    tracer.simSpan("phase", "testcat", 10, 14,
                   {obs::arg("k", std::int64_t{3})});
    tracer.simInstant("mark", "testcat", 12);
    tracer.wallSpan("kernel", "testcat", 0.5, 0.75);

    const auto events = tracer.snapshot();
    ASSERT_EQ(events.size(), 3u);

    EXPECT_EQ(events[0].name, "phase");
    EXPECT_EQ(events[0].phase, 'X');
    EXPECT_FALSE(events[0].wallClock);
    EXPECT_EQ(events[0].tsMicros, 10 * 1000000);
    EXPECT_EQ(events[0].durMicros, 4 * 1000000);
    ASSERT_EQ(events[0].args.size(), 1u);
    EXPECT_EQ(events[0].args[0].key, "k");
    EXPECT_EQ(events[0].args[0].json, "3");

    EXPECT_EQ(events[1].phase, 'i');
    EXPECT_EQ(events[1].tsMicros, 12 * 1000000);

    EXPECT_EQ(events[2].name, "kernel");
    EXPECT_TRUE(events[2].wallClock);
    EXPECT_EQ(events[2].durMicros, 250000);
}

TEST_F(ObsTest, TracerIgnoresRecordsWhileDisabled)
{
    obs::Tracer &tracer = obs::Tracer::global();
    tracer.setEnabled(false);
    tracer.simInstant("ignored", "testcat", 1);
    EXPECT_EQ(tracer.eventCount(), 0u);
    tracer.setEnabled(true);
    tracer.simInstant("kept", "testcat", 2);
    EXPECT_EQ(tracer.eventCount(), 1u);
}

TEST_F(ObsTest, ScopedLaneNestsAndRestores)
{
    // Each event carries the lane current when it was recorded.
    obs::Tracer &trace = obs::Tracer::global();
    trace.simInstant("before", "testcat", 1);
    {
        obs::ScopedLane outer(3);
        trace.simInstant("outer", "testcat", 2);
        {
            obs::ScopedLane inner(5);
            trace.simInstant("inner", "testcat", 3);
        }
        trace.simInstant("outer-again", "testcat", 4);
    }
    trace.simInstant("after", "testcat", 5);

    const auto events = trace.snapshot();
    ASSERT_EQ(events.size(), 5u);
    const int lanes[] = {0, 3, 5, 3, 0};
    for (std::size_t i = 0; i < events.size(); ++i)
        EXPECT_EQ(events[i].lane, lanes[i]) << events[i].name;
}

TEST_F(ObsTest, WallSpanRecordsOnlyWhileTracing)
{
    {
        obs::WallSpan span("scoped", "testcat");
    }
    EXPECT_EQ(obs::Tracer::global().eventCount(), 1u);

    obs::Tracer::global().setEnabled(false);
    {
        obs::WallSpan span("ignored", "testcat");
    }
    EXPECT_EQ(obs::Tracer::global().eventCount(), 1u);
}

TEST_F(ObsTest, ChromeTraceIsWellFormedJson)
{
    obs::Tracer &tracer = obs::Tracer::global();
    tracer.simSpan("s\"pan\n", "cat", 0, 1); // exercises escaping
    tracer.simInstant("mark", "cat", 1);

    std::ostringstream out;
    tracer.writeChromeTrace(out);
    const std::string doc = out.str();

    // Structural smoke check: balanced braces/brackets outside strings
    // catch the classic trailing-comma/missing-brace export bugs.
    int braces = 0;
    int brackets = 0;
    bool in_string = false;
    bool escaped = false;
    for (char c : doc) {
        if (escaped) {
            escaped = false;
            continue;
        }
        if (c == '\\') {
            escaped = in_string;
            continue;
        }
        if (c == '"') {
            in_string = !in_string;
            continue;
        }
        if (in_string)
            continue;
        braces += c == '{' ? 1 : c == '}' ? -1 : 0;
        brackets += c == '[' ? 1 : c == ']' ? -1 : 0;
        EXPECT_GE(braces, 0);
        EXPECT_GE(brackets, 0);
    }
    EXPECT_EQ(braces, 0);
    EXPECT_EQ(brackets, 0);
    EXPECT_FALSE(in_string);

    EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(doc.find("\"displayTimeUnit\""), std::string::npos);
    EXPECT_NE(doc.find("s\\\"pan\\n"), std::string::npos);
    // No trailing comma before the closing bracket.
    EXPECT_EQ(doc.find(",\n]"), std::string::npos);
    EXPECT_EQ(doc.find(",]"), std::string::npos);
}

TEST_F(ObsTest, ChromeTraceWithNoEventsIsStillWellFormed)
{
    std::ostringstream out;
    obs::Tracer::global().writeChromeTrace(out);
    const std::string doc = out.str();
    EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
    EXPECT_EQ(doc.find(",\n]"), std::string::npos);
}

TEST_F(ObsTest, JsonlExportsOneObjectPerLine)
{
    obs::MetricsRegistry::global().counter("t.jsonl").add(3);
    obs::Tracer::global().simInstant("mark", "cat", 1);

    std::ostringstream metrics;
    obs::MetricsRegistry::global().writeJsonl(metrics);
    EXPECT_NE(metrics.str().find("\"t.jsonl\""), std::string::npos);

    std::ostringstream events;
    obs::Tracer::global().writeJsonl(events);
    std::istringstream lines(events.str());
    std::string line;
    std::size_t n = 0;
    while (std::getline(lines, line)) {
        ++n;
        EXPECT_EQ(line.front(), '{');
        EXPECT_EQ(line.back(), '}');
    }
    EXPECT_EQ(n, obs::Tracer::global().eventCount());
}

TEST_F(ObsTest, MetricMutationsIgnoredWhenDisarmedAtTheGate)
{
    // The registry objects themselves always record; the runtime gate
    // lives at the instrumentation sites via obs::enabled().
    obs::setEnabled(false);
    EXPECT_FALSE(obs::enabled());
    obs::setEnabled(true);
    EXPECT_TRUE(obs::enabled());
}

TEST_F(ObsTest, ResetAllClearsValuesAndTraceEvents)
{
    obs::MetricsRegistry::global().counter("t.reset").add(9);
    obs::Tracer::global().simInstant("mark", "cat", 1);
    obs::resetAll();
    EXPECT_EQ(obs::MetricsRegistry::global().counter("t.reset").get(),
              0u);
    EXPECT_EQ(obs::Tracer::global().eventCount(), 0u);
}

TEST_F(ObsTest, JsonHelpersEscapeAndRenderNumbers)
{
    EXPECT_EQ(obs::jsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    EXPECT_EQ(obs::jsonEscape(std::string(1, '\x01')), "\\u0001");
    EXPECT_EQ(obs::jsonNumber(1.5), "1.5");
    EXPECT_EQ(obs::jsonNumber(std::nan("")), "null");
}

TEST_F(ObsTest, SummaryTableRendersEmptyHistogramAsNotAvailable)
{
    (void)obs::MetricsRegistry::global().histogram("t.summary_empty");
    const std::string table =
        obs::MetricsRegistry::global().summaryTable();
    EXPECT_NE(table.find("t.summary_empty"), std::string::npos);
    // NaN statistics must render as "n/a", never "nan".
    EXPECT_EQ(table.find("nan"), std::string::npos);
}

#else // !ADRIAS_OBS_ENABLED — the layer must be provably inert.

TEST_F(ObsTest, CompiledOutLayerCannotBeArmed)
{
    EXPECT_FALSE(obs::compiledIn());
    // SetUp already tried to arm both switches.
    EXPECT_FALSE(obs::enabled());
    EXPECT_FALSE(obs::Tracer::global().enabled());
}

TEST_F(ObsTest, CompiledOutMetricsNeverMove)
{
    obs::MetricsRegistry &reg = obs::MetricsRegistry::global();
    reg.counter("t.off").add(100);
    reg.gauge("t.off_g").set(5.0);
    reg.histogram("t.off_h").observe(1.0, 3);
    EXPECT_EQ(reg.counter("t.off").get(), 0u);
    EXPECT_DOUBLE_EQ(reg.gauge("t.off_g").get(), 0.0);
    EXPECT_EQ(reg.histogram("t.off_h").snapshot().count, 0u);
}

TEST_F(ObsTest, CompiledOutTracerRecordsNothing)
{
    obs::Tracer &tracer = obs::Tracer::global();
    tracer.simSpan("s", "c", 0, 1);
    tracer.simInstant("i", "c", 1);
    tracer.wallSpan("w", "c", 0.0, 1.0);
    {
        obs::WallSpan span("scoped", "c");
    }
    EXPECT_EQ(tracer.eventCount(), 0u);
    EXPECT_EQ(tracer.droppedEvents(), 0u);
}

TEST_F(ObsTest, CompiledOutRunLifecycleIsSilent)
{
    obs::startRun("/nonexistent/never-created");
    EXPECT_EQ(obs::finishRun(), "");
}

#endif // ADRIAS_OBS_ENABLED

} // namespace
