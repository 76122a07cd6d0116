/**
 * @file
 * Per-link/per-server/per-node conservation tests for RackTestbed: every
 * tick must satisfy offered = achieved + queued on every link, respect
 * link/server/local-pool capacities, and account capacity reservations
 * per server.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/invariant.hh"
#include "testbed/rack.hh"
#include "testbed/topology.hh"
#include "link_between.hh"

namespace adrias::testbed
{
namespace
{

/**
 * A pure-bandwidth remote deployment: no latency-bound slice, a tiny
 * LLC footprint and negligible CPU demand, so achieved traffic follows
 * the share algebra exactly.
 */
LoadDescriptor
remoteLoad(std::size_t node, std::size_t server, std::size_t link,
           double demand_gbps, DeploymentId id = 1)
{
    LoadDescriptor load;
    load.id = id;
    load.mode = MemoryMode::Remote;
    load.node = node;
    load.server = server;
    load.link = link;
    load.memDemandGBps = demand_gbps;
    load.latencyBoundFraction = 0.0;
    load.cpuCores = 0.5;
    load.cacheFootprintMb = 0.1;
    return load;
}

LoadDescriptor
localLoad(std::size_t node, double demand_gbps, DeploymentId id = 2)
{
    LoadDescriptor load;
    load.id = id;
    load.mode = MemoryMode::Local;
    load.node = node;
    load.memDemandGBps = demand_gbps;
    load.latencyBoundFraction = 0.0;
    load.cpuCores = 0.5;
    load.cacheFootprintMb = 0.1;
    return load;
}

/** A 1-node / 1-server rack over one CXL link (cap 4 GB/s). */
Topology
cxlPair(double server_bw = 15.0)
{
    Topology topo("cxl-pair");
    topo.addNode({"n0", {}});
    topo.addServer({"s0", 256.0, server_bw, {}});
    topo.addLink(0, 0, kCxlProfile);
    return topo.validate();
}

TEST(RackConservation, QuietLinkDeliversFullDemand)
{
    RackTestbed rack(cxlPair(), 7);
    rack.setNoise(0.0);
    const auto result = rack.tick({remoteLoad(0, 0, 0, 0.1)});
    ASSERT_EQ(result.outcomes.size(), 1u);
    EXPECT_DOUBLE_EQ(result.outcomes[0].achievedGBps, 0.1);
    EXPECT_DOUBLE_EQ(result.links[0].offeredGBps, 0.1);
    EXPECT_DOUBLE_EQ(result.links[0].queuedGBps, 0.0);
    EXPECT_DOUBLE_EQ(result.links[0].latencyCycles,
                     kCxlProfile.latencyBaseCycles);
}

TEST(RackConservation, OverloadedLinkConservesBytes)
{
    RackTestbed rack(cxlPair(), 7);
    rack.setNoise(0.0);
    const auto result = rack.tick({remoteLoad(0, 0, 0, 10.0)});
    const LinkTickStats &link = result.links[0];
    // bytes in = bytes out + queued, delivery clamped at the 4 GB/s cap.
    EXPECT_DOUBLE_EQ(link.offeredGBps, 10.0);
    EXPECT_NEAR(link.achievedGBps, kCxlProfile.bandwidthGBps, 1e-12);
    EXPECT_NEAR(link.offeredGBps, link.achievedGBps + link.queuedGBps,
                1e-12);
    // Pressure 2.5 sits past the CXL ramp end: saturation latency.
    EXPECT_DOUBLE_EQ(link.pressure, 2.5);
    EXPECT_DOUBLE_EQ(link.latencyCycles, kCxlProfile.latencySatCycles);
}

TEST(RackConservation, ConservationHoldsAcrossManySplitLoads)
{
    RackTestbed rack(cxlPair(), 7);
    rack.setNoise(0.0);
    std::vector<LoadDescriptor> loads;
    double total = 0.0;
    for (int i = 0; i < 8; ++i) {
        const double demand = 0.7 + 0.3 * i;
        loads.push_back(remoteLoad(0, 0, 0, demand, 10 + i));
        total += demand;
    }
    const auto result = rack.tick(loads);
    double achieved_sum = 0.0;
    for (const LoadOutcome &outcome : result.outcomes)
        achieved_sum += outcome.achievedGBps;
    EXPECT_NEAR(result.links[0].offeredGBps, total, 1e-9);
    EXPECT_NEAR(result.links[0].achievedGBps, achieved_sum, 1e-9);
    EXPECT_NEAR(result.links[0].offeredGBps,
                result.links[0].achievedGBps + result.links[0].queuedGBps,
                1e-9);
    EXPECT_LE(result.links[0].achievedGBps,
              kCxlProfile.bandwidthGBps + 1e-9);
}

TEST(RackConservation, ServerBandwidthSharedAcrossLinks)
{
    // Two nodes each pushing a full CXL link (4 GB/s) into one server
    // whose controllers sustain only 3 GB/s.
    Topology topo("shared-server");
    topo.addNode({"n0", {}});
    topo.addNode({"n1", {}});
    topo.addServer({"s0", 256.0, 3.0, {}});
    topo.addLink(0, 0, kCxlProfile);
    topo.addLink(1, 0, kCxlProfile);
    topo.validate();

    RackTestbed rack(topo, 7);
    rack.setNoise(0.0);
    const auto result = rack.tick(
        {remoteLoad(0, 0, 0, 4.0, 1), remoteLoad(1, 0, 1, 4.0, 2)});
    EXPECT_NEAR(result.servers[0].achievedGBps, 3.0, 1e-9);
    // Fair (proportional) split: each deployment lands at 1.5 GB/s.
    EXPECT_NEAR(result.outcomes[0].achievedGBps, 1.5, 1e-9);
    EXPECT_NEAR(result.outcomes[1].achievedGBps, 1.5, 1e-9);
}

TEST(RackConservation, IndependentLinksDoNotInterfere)
{
    const Topology topo = Topology::symmetric(2, 2, kCxlProfile);
    RackTestbed rack(topo, 7);
    rack.setNoise(0.0);
    const std::size_t heavy = testutil::linkBetween(topo, 0, 0);
    const std::size_t quiet = testutil::linkBetween(topo, 1, 1);
    const auto result = rack.tick({remoteLoad(0, 0, heavy, 12.0, 1),
                                   remoteLoad(1, 1, quiet, 0.5, 2)});
    // The quiet pair is unaffected by the saturated one.
    EXPECT_DOUBLE_EQ(result.outcomes[1].achievedGBps, 0.5);
    EXPECT_DOUBLE_EQ(result.links[quiet].queuedGBps, 0.0);
    EXPECT_DOUBLE_EQ(result.links[quiet].latencyCycles,
                     kCxlProfile.latencyBaseCycles);
    EXPECT_GT(result.links[heavy].queuedGBps, 0.0);
}

TEST(RackConservation, RemoteTrafficTerminatesLocally)
{
    // R3: a node's achieved remote traffic also flows through its local
    // controllers, so local + remote compete for the local pool.
    RackTestbed rack(cxlPair(), 7);
    rack.setNoise(0.0);
    const auto result = rack.tick(
        {localLoad(0, 14.0, 1), remoteLoad(0, 0, 0, 4.0, 2)});
    const NodeTickStats &node = result.nodes[0];
    // Total local-pool demand 18 GB/s against a 15 GB/s pool.
    EXPECT_NEAR(node.localTrafficGBps, 15.0, 1e-9);
    EXPECT_NEAR(result.outcomes[0].achievedGBps, 14.0 * 15.0 / 18.0,
                1e-9);
    EXPECT_NEAR(result.outcomes[1].achievedGBps, 4.0 * 15.0 / 18.0,
                1e-9);
    EXPECT_NEAR(node.remoteTrafficGBps, 4.0 * 15.0 / 18.0, 1e-9);
}

TEST(RackConservation, LinkFaultDeratesCapacityAndLatency)
{
    RackTestbed rack(cxlPair(), 7);
    rack.setNoise(0.0);
    rack.setLinkFault(0, 0.5, 2.0);
    EXPECT_DOUBLE_EQ(rack.linkBwFault(0), 0.5);
    EXPECT_DOUBLE_EQ(rack.linkLatencyFault(0), 2.0);
    const auto result = rack.tick({remoteLoad(0, 0, 0, 3.0)});
    // Effective cap 2 GB/s; pressure 1.5 is mid-ramp for CXL.
    EXPECT_NEAR(result.outcomes[0].achievedGBps, 2.0, 1e-9);
    EXPECT_DOUBLE_EQ(result.links[0].pressure, 1.5);
    const double mid_ramp =
        kCxlProfile.latencyBaseCycles +
        0.5 * (kCxlProfile.latencySatCycles - kCxlProfile.latencyBaseCycles);
    EXPECT_NEAR(result.links[0].latencyCycles, mid_ramp * 2.0, 1e-9);
    rack.setLinkFault(0, 1.0, 1.0); // healthy again
    const auto healthy = rack.tick({remoteLoad(0, 0, 0, 3.0)});
    EXPECT_NEAR(healthy.outcomes[0].achievedGBps, 3.0, 1e-9);
}

TEST(RackConservation, SetLinkFaultRejectsBadArguments)
{
    RackTestbed rack(cxlPair(), 7);
    EXPECT_THROW(rack.setLinkFault(5, 0.5, 1.0), std::runtime_error);
    EXPECT_THROW(rack.setLinkFault(0, 0.0, 1.0), std::runtime_error);
    EXPECT_THROW(rack.setLinkFault(0, 1.5, 1.0), std::runtime_error);
    EXPECT_THROW(rack.setLinkFault(0, 0.5, 0.5), std::runtime_error);
}

TEST(RackConservation, CapacityAccountingPerServer)
{
    RackTestbed rack(Topology::asymmetric4x4(), 7);
    // s2 holds 64 GB.
    EXPECT_TRUE(rack.allocate(2, 32.0).ok());
    EXPECT_DOUBLE_EQ(rack.allocatedGb(2), 32.0);
    EXPECT_DOUBLE_EQ(rack.availableGb(2), 32.0);
    const auto overflow = rack.allocate(2, 40.0);
    ASSERT_FALSE(overflow.ok());
    EXPECT_EQ(overflow.error().code, ErrorCode::Geometry);
    EXPECT_DOUBLE_EQ(rack.allocatedGb(2), 32.0); // rejected, unchanged
    rack.release(2, 32.0);
    EXPECT_DOUBLE_EQ(rack.allocatedGb(2), 0.0);
    // The drained server admits nothing.
    EXPECT_FALSE(rack.allocate(3, 1.0).ok());
    EXPECT_TRUE(rack.allocate(3, 0.0).ok());
}

TEST(RackConservation, AllocationMisuseIsFatal)
{
    RackTestbed rack(cxlPair(), 7);
    EXPECT_THROW((void)rack.allocate(9, 1.0), std::runtime_error);
    EXPECT_THROW((void)rack.allocate(0, -1.0), std::runtime_error);
    EXPECT_THROW(rack.release(0, 1.0), std::logic_error); // over-release
    EXPECT_THROW((void)rack.allocatedGb(9), std::runtime_error);
    EXPECT_THROW((void)rack.availableGb(9), std::runtime_error);
    EXPECT_THROW((void)rack.linkTotals(9), std::runtime_error);
}

TEST(RackConservation, AllocationsAppearInTickStats)
{
    RackTestbed rack(cxlPair(), 7);
    rack.setNoise(0.0);
    ASSERT_TRUE(rack.allocate(0, 48.0).ok());
    const auto result = rack.tick({remoteLoad(0, 0, 0, 0.1)});
    EXPECT_DOUBLE_EQ(result.servers[0].allocatedGb, 48.0);
}

TEST(RackConservation, LinkTotalsAccumulateAcrossTicks)
{
    RackTestbed rack(cxlPair(), 7);
    rack.setNoise(0.0);
    for (int t = 0; t < 3; ++t)
        rack.tick({remoteLoad(0, 0, 0, 10.0)});
    rack.tick({remoteLoad(0, 0, 0, 0.1)});
    const LinkTotals &totals = rack.linkTotals(0);
    EXPECT_NEAR(totals.offeredGb, 30.1, 1e-9);
    EXPECT_NEAR(totals.deliveredGb, 3 * kCxlProfile.bandwidthGBps + 0.1,
                1e-9);
    EXPECT_NEAR(totals.offeredGb, totals.deliveredGb + totals.queuedGb,
                1e-9);
    // Only the three overloaded ticks crossed the ramp start.
    EXPECT_EQ(totals.saturatedTicks, 3);
}

TEST(RackConservation, InvalidPlacementTriplesPanic)
{
    const Topology topo = Topology::symmetric(2, 2, kCxlProfile);
    RackTestbed rack(topo, 7);
    // Unknown node.
    EXPECT_THROW(rack.tick({remoteLoad(5, 0, 0, 1.0)}), std::logic_error);
    // Out-of-range link index.
    EXPECT_THROW(rack.tick({remoteLoad(0, 0, 9, 1.0)}), std::logic_error);
    // A real link that does not connect the placement's endpoints.
    const std::size_t wrong = testutil::linkBetween(topo, 1, 0);
    EXPECT_THROW(rack.tick({remoteLoad(0, 0, wrong, 1.0)}),
                 std::logic_error);
    // Local deployments only need a valid node.
    LoadDescriptor local = localLoad(0, 1.0);
    local.link = 9;
    local.server = 9;
    EXPECT_NO_THROW(rack.tick({local}));
}

TEST(RackConservation, PerProfileLatencyRamps)
{
    for (const LinkProfile &profile :
         {kThymesisFlowProfile, kCxlProfile, kRdmaProfile}) {
        EXPECT_DOUBLE_EQ(linkLatencyCycles(profile, 0.0),
                         profile.latencyBaseCycles);
        EXPECT_DOUBLE_EQ(linkLatencyCycles(profile, profile.rampStart),
                         profile.latencyBaseCycles);
        const double mid = 0.5 * (profile.rampStart + profile.rampEnd);
        EXPECT_NEAR(linkLatencyCycles(profile, mid),
                    0.5 * (profile.latencyBaseCycles +
                           profile.latencySatCycles),
                    1e-9);
        EXPECT_DOUBLE_EQ(linkLatencyCycles(profile, profile.rampEnd + 5.0),
                         profile.latencySatCycles);
    }
}

TEST(RackConservation, CorruptedTickTripsInvariants)
{
    if (!invariant::kEnabled)
        GTEST_SKIP() << "invariants compiled out of this build";

    RackTestbed rack(cxlPair(), 7);
    rack.setNoise(0.0);
    const std::vector<LoadDescriptor> loads = {remoteLoad(0, 0, 0, 1.0)};
    auto result = rack.tick(loads);

    static int violations = 0;
    violations = 0;
    auto *previous = invariant::setHandler(
        [](const invariant::Violation &) { ++violations; });

    // A deployment claiming more than the link delivered breaks both
    // the per-link sum and the conservation equation.
    result.outcomes[0].achievedGBps = 99.0;
    checkRackTickInvariants(loads, result, rack.topology());
    EXPECT_GE(violations, 2);

    invariant::setHandler(previous);
}

} // namespace
} // namespace adrias::testbed
