/**
 * @file
 * The simulated two-node ThymesisFlow machine.
 *
 * Testbed is the paper's prototype seen through the one contention
 * resolver: a thin view over a RackTestbed on a one-node, one-link
 * topology (by default Topology::paperPair()).  Given the loads active
 * during one second, tick() resolves the shared-resource contention
 * (CPU, LLC capacity, local DRAM bandwidth, remote channel bandwidth
 * and latency) and returns per-app slowdowns plus the performance
 * counters the Watcher samples, in the single-channel shape the
 * scenario layer consumes.
 */

#ifndef ADRIAS_TESTBED_TESTBED_HH
#define ADRIAS_TESTBED_TESTBED_HH

#include <vector>

#include "common/error.hh"
#include "common/io/binary.hh"
#include "testbed/counters.hh"
#include "testbed/load.hh"
#include "testbed/params.hh"
#include "testbed/rack.hh"
#include "testbed/topology.hh"

namespace adrias::testbed
{

/** Aggregate result of one simulated second. */
struct TickResult
{
    /** Per-deployment outcome, in input order. */
    std::vector<LoadOutcome> outcomes;

    /** The Watcher's counter sample for this tick. */
    CounterSample counters{};

    /** Total achieved remote traffic, GB/s. */
    double remoteTrafficGBps = 0.0;

    /** Total achieved local traffic, GB/s. */
    double localTrafficGBps = 0.0;

    /** Channel demand pressure (demand / capacity). */
    double channelPressure = 0.0;

    /** Channel latency this tick, cycles. */
    double channelLatencyCycles = 350.0;
};

/**
 * The single-channel view of a resolved rack tick: every outcome, node
 * 0's counters and traffic, link 0's pressure and latency.
 */
TickResult singleChannelView(const RackTickResult &resolved);

/** The simulated machine: one node, one channel. */
class Testbed
{
  public:
    /**
     * The paper's prototype, Topology::paperPair(params).
     *
     * @param params node calibration.
     * @param seed RNG seed for counter measurement noise.
     */
    explicit Testbed(TestbedParams params = {}, std::uint64_t seed = 1);

    /**
     * @param topo a one-node, one-link topology (fatal otherwise:
     *        multi-node racks run through RackTestbed).
     * @param seed RNG seed for counter measurement noise.
     */
    explicit Testbed(Topology topo, std::uint64_t seed = 1);

    /**
     * Resolve one second of execution.
     *
     * @param loads all deployments active during this tick.
     * @return slowdowns, achieved traffic and counters.
     */
    TickResult tick(const std::vector<LoadDescriptor> &loads);

    /** @return node calibration in use. */
    const TestbedParams &
    params() const
    {
        return rack.topology().node(0).local;
    }

    /** @return the channel's link profile. */
    const LinkProfile &
    link() const
    {
        return rack.topology().link(0).profile;
    }

    /**
     * Relative counter noise amplitude (0 disables measurement noise;
     * default 1%).
     */
    void setNoise(double relative_sigma) { rack.setNoise(relative_sigma); }

    /** Serialize the evolving state (RackTestbed::saveState). */
    void saveState(io::BinaryWriter &out) const { rack.saveState(out); }

    /** Restore a payload written by saveState(). */
    [[nodiscard]] Result<void>
    restoreState(io::BinaryReader &in)
    {
        return rack.restoreState(in);
    }

  private:
    RackTestbed rack;
};

} // namespace adrias::testbed

#endif // ADRIAS_TESTBED_TESTBED_HH
