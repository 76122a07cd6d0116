/**
 * @file
 * Proof that every ADRIAS_INVARIANT conservation law actually fires.
 *
 * Strategy: run a healthy tick through the real testbed (no
 * violations), then corrupt one field at a time and feed the corrupted
 * RackTickResult to checkRackTickInvariants() with a recording handler
 * installed.  Each corruption must produce at least one violation whose
 * text names the corrupted quantity.  Two inputs cover the checker: the
 * paper's two-node machine (the 1x1 "paper-pair" topology) and a 2x2
 * CXL rack.  The watcher's timestamp monotonicity check is exercised
 * the same way.
 *
 * In builds with -DADRIAS_INVARIANTS=OFF (plain Release) the checks
 * compile out; the firing tests GTEST_SKIP there, and a dedicated test
 * verifies the compiled-out macro never evaluates its operands.
 */

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/invariant.hh"
#include "telemetry/watcher.hh"
#include "testbed/rack.hh"
#include "testbed/topology.hh"
#include "../testbed/topology/link_between.hh"

namespace
{

using adrias::invariant::kEnabled;
using adrias::invariant::setHandler;
using adrias::invariant::Violation;
using adrias::testbed::LoadDescriptor;
using adrias::testbed::RackTickResult;
using adrias::testbed::TestbedParams;
using adrias::testbed::Topology;

/** Violations captured by the recording handler (plain function ptr). */
std::vector<std::string> &
captured()
{
    static std::vector<std::string> log;
    return log;
}

void
recordViolation(const Violation &violation)
{
    captured().push_back(violation.toString());
}

/** Installs the recording handler for one test, restores on exit. */
class RecordingHandler
{
  public:
    RecordingHandler()
    {
        captured().clear();
        previous = setHandler(&recordViolation);
    }
    ~RecordingHandler() { setHandler(previous); }

    std::size_t count() const { return captured().size(); }

    bool
    anyMentions(const std::string &needle) const
    {
        for (const auto &text : captured()) {
            if (text.find(needle) != std::string::npos)
                return true;
        }
        return false;
    }

  private:
    adrias::invariant::Handler previous;
};

/** A small healthy mixed local/remote tick. */
std::vector<LoadDescriptor>
healthyLoads()
{
    using adrias::MemoryMode;
    LoadDescriptor local;
    local.id = 1;
    local.mode = MemoryMode::Local;
    local.memDemandGBps = 2.0;
    local.cacheFootprintMb = 4.0;

    LoadDescriptor remote;
    remote.id = 2;
    remote.mode = MemoryMode::Remote;
    remote.memDemandGBps = 0.5;
    remote.cacheFootprintMb = 3.0;

    return {local, remote};
}

/**
 * Paper-pair tick invariant firing: the two-node machine's healthy
 * tick, corrupted one quantity at a time, through the rack checker.
 */
class TickInvariantTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        if (!kEnabled)
            GTEST_SKIP() << "invariants compiled out (ADRIAS_INVARIANTS"
                            "=OFF)";
        loads = healthyLoads();
        adrias::testbed::RackTestbed rack(topo, 1);
        rack.setNoise(0.0);
        result = rack.tick(loads);
    }

    void
    check(const std::vector<double> &link_bw_scale = {})
    {
        adrias::testbed::checkRackTickInvariants(loads, result, topo,
                                                 link_bw_scale);
    }

    Topology topo = Topology::paperPair();
    std::vector<LoadDescriptor> loads;
    RackTickResult result;
    TestbedParams params;
};

TEST_F(TickInvariantTest, HealthyTickIsViolationFree)
{
    RecordingHandler handler;
    check();
    EXPECT_EQ(handler.count(), 0u);

    // A faulted channel derates the cap; the scaled check must still
    // accept the testbed's own (re-resolved) output.
    adrias::testbed::RackTestbed faulted(topo, 1);
    faulted.setNoise(0.0);
    faulted.setLinkFault(0, 0.5, 2.0);
    result = faulted.tick(loads);
    check({0.5});
    EXPECT_EQ(handler.count(), 0u);
}

TEST_F(TickInvariantTest, OutcomeCountMismatchFires)
{
    RecordingHandler handler;
    result.outcomes.pop_back();
    check();
    EXPECT_GE(handler.count(), 1u);
    EXPECT_TRUE(handler.anyMentions("outcomes"));
}

TEST_F(TickInvariantTest, NegativeAchievedBandwidthFires)
{
    RecordingHandler handler;
    result.outcomes[0].achievedGBps = -1.0;
    check();
    EXPECT_GE(handler.count(), 1u);
    EXPECT_TRUE(handler.anyMentions("achievedGBps"));
}

TEST_F(TickInvariantTest, NonFiniteLatencyFires)
{
    RecordingHandler handler;
    result.outcomes[0].latencyNs = std::nan("");
    check();
    EXPECT_GE(handler.count(), 1u);
    EXPECT_TRUE(handler.anyMentions("latencyNs"));
}

TEST_F(TickInvariantTest, SubUnitySlowdownFires)
{
    RecordingHandler handler;
    result.outcomes[0].slowdown = 0.5;
    check();
    EXPECT_GE(handler.count(), 1u);
    EXPECT_TRUE(handler.anyMentions("slowdown"));
}

TEST_F(TickInvariantTest, HitRateAboveBaseFires)
{
    RecordingHandler handler;
    result.outcomes[0].hitRate = loads[0].baseHitRate * 2.0;
    check();
    EXPECT_GE(handler.count(), 1u);
    EXPECT_TRUE(handler.anyMentions("hitRate"));
}

TEST_F(TickInvariantTest, RemoteThroughputAboveChannelCapFires)
{
    RecordingHandler handler;
    result.nodes[0].remoteTrafficGBps =
        topo.link(0).profile.bandwidthGBps * 2.0;
    check();
    EXPECT_GE(handler.count(), 1u);
    EXPECT_TRUE(handler.anyMentions("remoteTrafficGBps"));
}

TEST_F(TickInvariantTest, PerAppRemoteSumAboveDeratedCapFires)
{
    RecordingHandler handler;
    // Healthy against the full cap, violating once derated to 10%.
    check({0.1});
    EXPECT_GE(handler.count(), 1u);
    EXPECT_TRUE(handler.anyMentions("link_achieved"));
}

TEST_F(TickInvariantTest, LocalTrafficAbovePoolCapFires)
{
    RecordingHandler handler;
    result.nodes[0].localTrafficGBps = params.localBwGBps * 2.0;
    check();
    EXPECT_GE(handler.count(), 1u);
    EXPECT_TRUE(handler.anyMentions("localTrafficGBps"));
}

TEST_F(TickInvariantTest, LlcOccupancyAboveCapacityFires)
{
    RecordingHandler handler;
    // Full residency of a working set far beyond the LLC: the
    // proportional-occupancy model could never produce this.
    loads[0].cacheFootprintMb = params.llcCapacityMb * 10.0;
    result.outcomes[0].hitRate = loads[0].baseHitRate;
    check();
    EXPECT_GE(handler.count(), 1u);
    EXPECT_TRUE(handler.anyMentions("node_llc_mb"));
}

TEST_F(TickInvariantTest, NegativeChannelPressureFires)
{
    RecordingHandler handler;
    result.links[0].pressure = -0.1;
    check();
    EXPECT_GE(handler.count(), 1u);
    EXPECT_TRUE(handler.anyMentions("pressure"));
}

TEST_F(TickInvariantTest, ChannelLatencyBelowBaseFires)
{
    RecordingHandler handler;
    result.links[0].latencyCycles =
        topo.link(0).profile.latencyBaseCycles / 2.0;
    check();
    EXPECT_GE(handler.count(), 1u);
    EXPECT_TRUE(handler.anyMentions("latencyCycles"));
}

TEST_F(TickInvariantTest, NonFiniteCounterFires)
{
    RecordingHandler handler;
    result.nodes[0].counters[0] = std::nan("");
    check();
    EXPECT_GE(handler.count(), 1u);
    EXPECT_TRUE(handler.anyMentions("value"));
}

TEST_F(TickInvariantTest, CompensatingCrossChannelErrorFires)
{
    RecordingHandler handler;
    // Shift achieved traffic from the local app to the remote app so
    // the combined local-pool total is unchanged: an aggregate-only
    // check would accept this, the per-channel sums must not.
    const double delta = 0.2;
    result.outcomes[0].achievedGBps -= delta; // local app
    result.outcomes[1].achievedGBps += delta; // remote app
    check();
    EXPECT_GE(handler.count(), 1u);
    EXPECT_TRUE(handler.anyMentions("remoteTrafficGBps"));
}

/**
 * Rack-tick invariant firing: run a healthy tick on a 2×2 CXL rack,
 * then corrupt one per-link / per-server / per-node quantity at a time
 * and prove checkRackTickInvariants() names it.
 */
class RackInvariantTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        if (!kEnabled)
            GTEST_SKIP() << "invariants compiled out (ADRIAS_INVARIANTS"
                            "=OFF)";
        using adrias::MemoryMode;
        LoadDescriptor local;
        local.id = 1;
        local.mode = MemoryMode::Local;
        local.node = 0;
        local.memDemandGBps = 2.0;
        local.cacheFootprintMb = 4.0;
        loads.push_back(local);

        LoadDescriptor remote;
        remote.id = 2;
        remote.mode = MemoryMode::Remote;
        remote.node = 0;
        remote.server = 0;
        remote.link = adrias::testbed::testutil::linkBetween(topo, 0, 0);
        remote.memDemandGBps = 1.0;
        remote.cacheFootprintMb = 3.0;
        loads.push_back(remote);

        LoadDescriptor far = remote;
        far.id = 3;
        far.node = 1;
        far.server = 1;
        far.link = adrias::testbed::testutil::linkBetween(topo, 1, 1);
        far.memDemandGBps = 0.8;
        loads.push_back(far);

        adrias::testbed::RackTestbed rack(topo, 1);
        rack.setNoise(0.0);
        result = rack.tick(loads);
    }

    Topology topo =
        Topology::symmetric(2, 2, adrias::testbed::kCxlProfile);
    std::vector<LoadDescriptor> loads;
    RackTickResult result;
};

TEST_F(RackInvariantTest, HealthyRackTickIsViolationFree)
{
    RecordingHandler handler;
    adrias::testbed::checkRackTickInvariants(loads, result, topo);
    EXPECT_EQ(handler.count(), 0u);

    // A derated link must still accept the rack's own re-resolved
    // output when the matching scale vector is passed.
    adrias::testbed::RackTestbed faulted(topo, 1);
    faulted.setNoise(0.0);
    faulted.setLinkFault(0, 0.5, 2.0);
    const RackTickResult derated = faulted.tick(loads);
    std::vector<double> scales(topo.linkCount(), 1.0);
    scales[0] = 0.5;
    adrias::testbed::checkRackTickInvariants(loads, derated, topo,
                                             scales);
    EXPECT_EQ(handler.count(), 0u);
}

TEST_F(RackInvariantTest, StatsVectorSizeMismatchFires)
{
    RecordingHandler handler;
    result.links.pop_back();
    adrias::testbed::checkRackTickInvariants(loads, result, topo);
    EXPECT_GE(handler.count(), 1u);
    EXPECT_TRUE(handler.anyMentions("link stats size mismatch"));
}

TEST_F(RackInvariantTest, LinkConservationBreakFires)
{
    RecordingHandler handler;
    result.links[loads[1].link].queuedGBps += 1.0;
    adrias::testbed::checkRackTickInvariants(loads, result, topo);
    EXPECT_GE(handler.count(), 1u);
    EXPECT_TRUE(handler.anyMentions("offeredGBps"));
}

TEST_F(RackInvariantTest, LinkDeliverySumMismatchFires)
{
    RecordingHandler handler;
    result.links[loads[1].link].achievedGBps += 0.5;
    adrias::testbed::checkRackTickInvariants(loads, result, topo);
    EXPECT_GE(handler.count(), 1u);
    EXPECT_TRUE(handler.anyMentions("link_achieved"));
}

TEST_F(RackInvariantTest, DeratedLinkCapOverflowFires)
{
    RecordingHandler handler;
    // The healthy tick delivered ~1 GB/s on link 0; claiming the link
    // was derated to 1% of its 4 GB/s makes that delivery impossible.
    std::vector<double> scales(topo.linkCount(), 1.0);
    scales[loads[1].link] = 0.01;
    adrias::testbed::checkRackTickInvariants(loads, result, topo,
                                             scales);
    EXPECT_GE(handler.count(), 1u);
    EXPECT_TRUE(handler.anyMentions("link_achieved"));
}

TEST_F(RackInvariantTest, LinkLatencyBelowBaseFires)
{
    RecordingHandler handler;
    result.links[0].latencyCycles = 1.0;
    adrias::testbed::checkRackTickInvariants(loads, result, topo);
    EXPECT_GE(handler.count(), 1u);
    EXPECT_TRUE(handler.anyMentions("latencyCycles"));
}

TEST_F(RackInvariantTest, ServerSumMismatchFires)
{
    RecordingHandler handler;
    result.servers[1].achievedGBps += 1.0;
    adrias::testbed::checkRackTickInvariants(loads, result, topo);
    EXPECT_GE(handler.count(), 1u);
    EXPECT_TRUE(handler.anyMentions("server_achieved"));
}

TEST_F(RackInvariantTest, ServerAllocationOutOfRangeFires)
{
    RecordingHandler handler;
    result.servers[0].allocatedGb = -1.0;
    adrias::testbed::checkRackTickInvariants(loads, result, topo);
    EXPECT_GE(handler.count(), 1u);
    EXPECT_TRUE(handler.anyMentions("allocatedGb"));
}

TEST_F(RackInvariantTest, NodeRemoteSumMismatchFires)
{
    RecordingHandler handler;
    result.nodes[1].remoteTrafficGBps += 1.0;
    adrias::testbed::checkRackTickInvariants(loads, result, topo);
    EXPECT_GE(handler.count(), 1u);
    EXPECT_TRUE(handler.anyMentions("node_remote"));
}

TEST_F(RackInvariantTest, NodeLocalTerminationMismatchFires)
{
    RecordingHandler handler;
    // R3: remote traffic must terminate in node 0's local controllers;
    // zeroing the reported local traffic breaks that accounting.
    result.nodes[0].localTrafficGBps = 0.0;
    adrias::testbed::checkRackTickInvariants(loads, result, topo);
    EXPECT_GE(handler.count(), 1u);
    EXPECT_TRUE(handler.anyMentions("local_total"));
}

TEST(WatcherInvariantTest, NonMonotonicTimestampFires)
{
    if (!kEnabled)
        GTEST_SKIP() << "invariants compiled out";
    RecordingHandler handler;
    adrias::telemetry::Watcher watcher(16);
    adrias::testbed::CounterSample sample{};
    watcher.record(sample, 5);
    watcher.record(sample, 6);
    EXPECT_EQ(handler.count(), 0u);

    watcher.record(sample, 6); // duplicate tick
    EXPECT_EQ(handler.count(), 1u);
    watcher.record(sample, 4); // reordered tick
    EXPECT_EQ(handler.count(), 2u);
    EXPECT_TRUE(handler.anyMentions("watcher sample"));

    // Dropouts share the same watermark.
    watcher.recordDropped(7);
    EXPECT_EQ(handler.count(), 2u);
    watcher.recordDropped(7);
    EXPECT_EQ(handler.count(), 3u);

    // clear() resets the watermark: old stamps become valid again.
    watcher.clear();
    watcher.record(sample, 1);
    EXPECT_EQ(handler.count(), 3u);
}

TEST(InvariantMacroTest, ConditionEvaluatedOnlyWhenEnabled)
{
    int calls = 0;
    auto probe = [&calls]() {
        ++calls;
        return true;
    };
    ADRIAS_INVARIANT(probe());
    EXPECT_EQ(calls, kEnabled ? 1 : 0);
}

TEST(InvariantMacroTest, PassingCheckNeverReportsWhenEnabled)
{
    if (!kEnabled)
        GTEST_SKIP() << "invariants compiled out";
    RecordingHandler handler;
    ADRIAS_INVARIANT(1 + 1 == 2);
    ADRIAS_INVARIANT_LE(1.0, 2.0);
    ADRIAS_INVARIANT_GE(2.0, 1.0);
    ADRIAS_INVARIANT_FINITE(0.5);
    EXPECT_EQ(handler.count(), 0u);
}

TEST(InvariantMacroTest, ConvenienceFormsReportBothOperands)
{
    if (!kEnabled)
        GTEST_SKIP() << "invariants compiled out";
    RecordingHandler handler;
    const double lhs = 3.0;
    const double rhs = 2.0;
    ADRIAS_INVARIANT_LE(lhs, rhs);
    ASSERT_EQ(handler.count(), 1u);
    EXPECT_TRUE(handler.anyMentions("lhs=3.0"));
    EXPECT_TRUE(handler.anyMentions("rhs=2.0"));

    ADRIAS_INVARIANT_GE(rhs, lhs);
    EXPECT_EQ(handler.count(), 2u);

    const double bad = std::nan("");
    ADRIAS_INVARIANT_FINITE(bad);
    EXPECT_EQ(handler.count(), 3u);
}

TEST(InvariantMacroTest, MessageArgumentIsCarried)
{
    if (!kEnabled)
        GTEST_SKIP() << "invariants compiled out";
    RecordingHandler handler;
    ADRIAS_INVARIANT(false, std::string("context 42"));
    ASSERT_EQ(handler.count(), 1u);
    EXPECT_TRUE(handler.anyMentions("context 42"));
    EXPECT_TRUE(handler.anyMentions("false"));
}

TEST(InvariantMacroTest, DefaultHandlerPanics)
{
    if (!kEnabled)
        GTEST_SKIP() << "invariants compiled out";
    // No RecordingHandler: the default handler must throw.
    EXPECT_THROW(ADRIAS_INVARIANT(false), std::logic_error);
}

TEST(InvariantMacroTest, SetHandlerReturnsPreviousAndNullRestores)
{
    if (!kEnabled)
        GTEST_SKIP() << "invariants compiled out";
    auto previous = setHandler(&recordViolation);
    auto mine = setHandler(nullptr); // restore default
    EXPECT_EQ(mine, &recordViolation);
    EXPECT_THROW(ADRIAS_INVARIANT(false), std::logic_error);
    setHandler(previous);
}

TEST(InvariantMacroTest, ViolationToStringNamesLocation)
{
    Violation violation;
    violation.condition = "x > 0";
    violation.file = "src/foo.cc";
    violation.line = 42;
    violation.message = "x=-1";
    const std::string text = violation.toString();
    EXPECT_NE(text.find("x > 0"), std::string::npos);
    EXPECT_NE(text.find("src/foo.cc:42"), std::string::npos);
    EXPECT_NE(text.find("x=-1"), std::string::npos);
}

} // namespace
