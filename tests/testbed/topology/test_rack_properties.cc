/**
 * @file
 * Randomized property tests for RackTestbed: seeded random topologies,
 * load mixes, faults and allocation sequences, with every conservation
 * law re-derived by hand (independently of checkRackTickInvariants) so
 * the production checker and the model cannot share a common bug.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "testbed/rack.hh"
#include "testbed/topology.hh"

namespace adrias::testbed
{
namespace
{

constexpr double kTol = 1e-9;

double
relTol(double reference)
{
    return kTol + kTol * std::fabs(reference);
}

/** A random validated topology: 1-4 nodes, 1-4 servers, random links. */
Topology
randomTopology(Rng &rng)
{
    const auto n_nodes = static_cast<std::size_t>(rng.uniformInt(1, 4));
    const auto n_servers = static_cast<std::size_t>(rng.uniformInt(1, 4));
    Topology topo("random");
    for (std::size_t n = 0; n < n_nodes; ++n) {
        std::string name = "n";
        name += std::to_string(n);
        topo.addNode({std::move(name), {}});
    }
    for (std::size_t s = 0; s < n_servers; ++s) {
        std::string name = "s";
        name += std::to_string(s);
        topo.addServer({std::move(name), rng.uniform(0.0, 128.0),
                        rng.uniform(2.0, 20.0), {}});
    }
    const std::vector<LinkProfile> profiles{kThymesisFlowProfile,
                                            kCxlProfile, kRdmaProfile};
    bool any = false;
    for (std::size_t n = 0; n < n_nodes; ++n)
        for (std::size_t s = 0; s < n_servers; ++s)
            if (rng.bernoulli(0.6)) {
                const auto pick = static_cast<std::size_t>(rng.uniformInt(
                    0, static_cast<std::int64_t>(profiles.size()) - 1));
                topo.addLink(n, s, profiles[pick]);
                any = true;
            }
    if (!any)
        topo.addLink(0, 0, kThymesisFlowProfile);
    return topo.validate();
}

/** Random loads: local per node, remote per link, varied pressure. */
std::vector<LoadDescriptor>
randomLoads(Rng &rng, const Topology &topo)
{
    std::vector<LoadDescriptor> loads;
    DeploymentId id = 1;
    for (std::size_t n = 0; n < topo.nodeCount(); ++n) {
        const auto count = static_cast<std::size_t>(rng.uniformInt(0, 2));
        for (std::size_t k = 0; k < count; ++k) {
            LoadDescriptor load;
            load.id = id++;
            load.mode = MemoryMode::Local;
            load.node = n;
            load.cpuCores = rng.uniform(0.5, 32.0);
            load.cpuFraction = rng.uniform(0.1, 0.9);
            load.memDemandGBps = rng.uniform(0.0, 12.0);
            load.latencyBoundFraction = rng.uniform(0.0, 0.6);
            load.cacheFootprintMb = rng.uniform(0.1, 15.0);
            load.baseHitRate = rng.uniform(0.5, 0.95);
            loads.push_back(load);
        }
    }
    for (std::size_t l = 0; l < topo.linkCount(); ++l) {
        const auto count = static_cast<std::size_t>(rng.uniformInt(0, 2));
        for (std::size_t k = 0; k < count; ++k) {
            LoadDescriptor load;
            load.id = id++;
            load.mode = MemoryMode::Remote;
            load.node = topo.link(l).node;
            load.server = topo.link(l).server;
            load.link = l;
            load.cpuCores = rng.uniform(0.5, 16.0);
            load.cpuFraction = rng.uniform(0.1, 0.9);
            // Up to ~3x the link cap so saturation is common.
            load.memDemandGBps = rng.uniform(
                0.0, 3.0 * topo.link(l).profile.bandwidthGBps);
            load.latencyBoundFraction = rng.uniform(0.0, 0.6);
            load.cacheFootprintMb = rng.uniform(0.1, 15.0);
            load.baseHitRate = rng.uniform(0.5, 0.95);
            loads.push_back(load);
        }
    }
    return loads;
}

/** Hand re-derivation of every conservation law for one tick. */
void
checkByHand(const Topology &topo, const std::vector<LoadDescriptor> &loads,
            const RackTickResult &result,
            const std::vector<double> &bw_scale)
{
    std::vector<double> link_sum(topo.linkCount(), 0.0);
    std::vector<double> server_sum(topo.serverCount(), 0.0);
    std::vector<double> node_sum(topo.nodeCount(), 0.0);
    for (std::size_t i = 0; i < loads.size(); ++i) {
        const double achieved = result.outcomes[i].achievedGBps;
        ASSERT_GE(achieved, 0.0);
        ASSERT_LE(achieved, loads[i].memDemandGBps + relTol(achieved));
        ASSERT_GE(result.outcomes[i].slowdown, 1.0);
        ASSERT_TRUE(std::isfinite(result.outcomes[i].slowdown));
        if (loads[i].mode == MemoryMode::Remote) {
            link_sum[loads[i].link] += achieved;
            server_sum[loads[i].server] += achieved;
        }
        node_sum[loads[i].node] += achieved;
    }
    for (std::size_t l = 0; l < topo.linkCount(); ++l) {
        const LinkTickStats &stats = result.links[l];
        const double cap = topo.link(l).profile.bandwidthGBps *
                           (l < bw_scale.size() ? bw_scale[l] : 1.0);
        ASSERT_NEAR(stats.achievedGBps, link_sum[l], relTol(link_sum[l]));
        ASSERT_NEAR(stats.offeredGBps,
                    stats.achievedGBps + stats.queuedGBps,
                    relTol(stats.offeredGBps));
        ASSERT_LE(link_sum[l], cap + relTol(cap));
        ASSERT_GE(stats.queuedGBps, 0.0);
    }
    for (std::size_t s = 0; s < topo.serverCount(); ++s) {
        ASSERT_NEAR(result.servers[s].achievedGBps, server_sum[s],
                    relTol(server_sum[s]));
        ASSERT_LE(server_sum[s], topo.server(s).bandwidthGBps +
                                     relTol(topo.server(s).bandwidthGBps));
    }
    for (std::size_t n = 0; n < topo.nodeCount(); ++n) {
        const double cap = topo.node(n).local.localBwGBps;
        ASSERT_NEAR(result.nodes[n].localTrafficGBps, node_sum[n],
                    relTol(node_sum[n]));
        ASSERT_LE(node_sum[n], cap + relTol(cap));
    }
}

TEST(RackProperties, RandomizedConservationHolds)
{
    for (std::uint64_t seed = 1; seed <= 25; ++seed) {
        Rng rng(seed);
        const Topology topo = randomTopology(rng);
        RackTestbed rack(topo, seed);
        rack.setNoise(0.0);
        for (int t = 0; t < 4; ++t) {
            const auto loads = randomLoads(rng, topo);
            const auto result = rack.tick(loads);
            checkByHand(topo, loads, result, {});
            if (::testing::Test::HasFatalFailure())
                FAIL() << "seed=" << seed << " tick=" << t;
        }
    }
}

TEST(RackProperties, RandomizedConservationHoldsUnderFaults)
{
    for (std::uint64_t seed = 100; seed <= 120; ++seed) {
        Rng rng(seed);
        const Topology topo = randomTopology(rng);
        RackTestbed rack(topo, seed);
        rack.setNoise(0.0);
        std::vector<double> bw_scale(topo.linkCount(), 1.0);
        for (std::size_t l = 0; l < topo.linkCount(); ++l)
            if (rng.bernoulli(0.5)) {
                bw_scale[l] = rng.uniform(0.1, 1.0);
                rack.setLinkFault(l, bw_scale[l], rng.uniform(1.0, 4.0));
            }
        for (int t = 0; t < 4; ++t) {
            const auto loads = randomLoads(rng, topo);
            const auto result = rack.tick(loads);
            checkByHand(topo, loads, result, bw_scale);
            if (::testing::Test::HasFatalFailure())
                FAIL() << "seed=" << seed << " tick=" << t;
        }
    }
}

TEST(RackProperties, RandomizedAllocationAccounting)
{
    for (std::uint64_t seed = 200; seed <= 215; ++seed) {
        Rng rng(seed);
        const Topology topo = randomTopology(rng);
        RackTestbed rack(topo, seed);
        // Track expected allocations through a random grant/release mix.
        std::vector<std::vector<double>> granted(topo.serverCount());
        for (int step = 0; step < 60; ++step) {
            const auto s = static_cast<std::size_t>(rng.uniformInt(
                0, static_cast<std::int64_t>(topo.serverCount()) - 1));
            if (rng.bernoulli(0.6)) {
                const double gb = rng.uniform(0.0, 48.0);
                if (rack.allocate(s, gb).ok())
                    granted[s].push_back(gb);
            } else if (!granted[s].empty()) {
                rack.release(s, granted[s].back());
                granted[s].pop_back();
            }
            double expected = 0.0;
            for (double gb : granted[s])
                expected += gb;
            ASSERT_NEAR(rack.allocatedGb(s), expected, relTol(expected))
                << "seed=" << seed << " step=" << step;
            ASSERT_LE(rack.allocatedGb(s),
                      topo.server(s).capacityGb + 1e-6);
            ASSERT_NEAR(rack.allocatedGb(s) + rack.availableGb(s),
                        topo.server(s).capacityGb,
                        relTol(topo.server(s).capacityGb));
        }
    }
}

TEST(RackProperties, RandomizedCheckpointMidstream)
{
    for (std::uint64_t seed = 300; seed <= 310; ++seed) {
        Rng rng(seed);
        const Topology topo = randomTopology(rng);
        RackTestbed original(topo, seed);
        original.setNoise(0.015);
        const auto loads = randomLoads(rng, topo);
        const auto warmup = static_cast<int>(rng.uniformInt(0, 5));
        for (int t = 0; t < warmup; ++t)
            original.tick(loads);

        io::BinaryWriter out;
        original.saveState(out);
        RackTestbed restored(topo, seed + 999);
        io::BinaryReader in(out.data());
        ASSERT_TRUE(restored.restoreState(in).ok()) << "seed=" << seed;

        const auto next_a = original.tick(loads);
        const auto next_b = restored.tick(loads);
        for (std::size_t n = 0; n < topo.nodeCount(); ++n)
            for (std::size_t e = 0; e < kNumPerfEvents; ++e)
                ASSERT_EQ(next_a.nodes[n].counters[e],
                          next_b.nodes[n].counters[e])
                    << "seed=" << seed;
    }
}

TEST(RackProperties, CumulativeTotalsMatchTickSums)
{
    for (std::uint64_t seed = 400; seed <= 410; ++seed) {
        Rng rng(seed);
        const Topology topo = randomTopology(rng);
        RackTestbed rack(topo, seed);
        rack.setNoise(0.0);
        std::vector<double> offered(topo.linkCount(), 0.0);
        std::vector<double> delivered(topo.linkCount(), 0.0);
        for (int t = 0; t < 5; ++t) {
            const auto loads = randomLoads(rng, topo);
            const auto result = rack.tick(loads);
            for (std::size_t l = 0; l < topo.linkCount(); ++l) {
                offered[l] += result.links[l].offeredGBps;
                delivered[l] += result.links[l].achievedGBps;
            }
        }
        for (std::size_t l = 0; l < topo.linkCount(); ++l) {
            ASSERT_NEAR(rack.linkTotals(l).offeredGb, offered[l],
                        relTol(offered[l]));
            ASSERT_NEAR(rack.linkTotals(l).deliveredGb, delivered[l],
                        relTol(delivered[l]));
            ASSERT_NEAR(rack.linkTotals(l).offeredGb,
                        rack.linkTotals(l).deliveredGb +
                            rack.linkTotals(l).queuedGb,
                        relTol(offered[l]));
        }
    }
}

} // namespace
} // namespace adrias::testbed
