/**
 * @file
 * The rack-scale M×N testbed: many compute nodes borrowing memory from
 * many servers over heterogeneous links — the one contention resolver
 * of the reproduction.
 *
 * RackTestbed::tick() resolves one second of shared-resource
 * contention: per-node CPU and LLC contention, per-link back-pressure
 * (the R2 latency ramp, evaluated against each link's own profile),
 * per-server DRAM bandwidth sharing, and the R3 rule that remote
 * traffic also terminates in the borrower's local memory controllers.
 * A deployment's share therefore composes multiplicatively:
 * linkShare × serverShare × localShare.  The paper's two-node machine
 * is the 1×1 "paper-pair" topology; Testbed (testbed.hh) is a thin view
 * over it, and every aggregate is evaluated so that a single link
 * reproduces the original single-channel arithmetic bit for bit.
 *
 * Per-link conservation holds by construction every tick:
 * offered = achieved + queued, with achieved never exceeding the
 * (possibly fault-derated) link capacity.  checkRackTickInvariants
 * re-derives all of it from the per-deployment outcomes so a bug on one
 * link cannot hide behind slack on another.
 */

#ifndef ADRIAS_TESTBED_RACK_HH
#define ADRIAS_TESTBED_RACK_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hh"
#include "common/io/binary.hh"
#include "common/io/checkpoint_annotations.hh"
#include "common/rng.hh"
#include "testbed/counters.hh"
#include "testbed/load.hh"
#include "testbed/topology.hh"

namespace adrias::testbed
{

/**
 * LLC capacity-contention submodel.
 *
 * Proportional occupancy: when the sum of hot footprints exceeds
 * capacity, every app keeps capacity/total of its working set resident
 * and its hit rate degrades linearly with the evicted fraction.
 *
 * @param base_hit_rate hit rate with a fully resident working set.
 * @param footprint_mb this app's hot working set.
 * @param total_footprint_mb sum over co-located apps.
 * @param capacity_mb LLC capacity.
 * @return effective hit rate in [0, base_hit_rate].
 */
double llcEffectiveHitRate(double base_hit_rate, double footprint_mb,
                           double total_footprint_mb, double capacity_mb);

/** One link's queueing/contention state for one resolved tick. */
struct LinkTickStats
{
    /** Back-pressured demand entering the link this tick, GB/s. */
    double offeredGBps = 0.0;

    /** Traffic delivered end-to-end over the link, GB/s. */
    double achievedGBps = 0.0;

    /** offered - achieved: demand stalled in the link queue, GB/s. */
    double queuedGBps = 0.0;

    /** Offered base-latency demand / effective capacity. */
    double pressure = 0.0;

    /** Link latency this tick, cycles (profile ramp × fault scale). */
    double latencyCycles = 0.0;

    /** Flits moved this tick, millions. */
    double flitsM = 0.0;
};

/** One memory server's load for one resolved tick. */
struct ServerTickStats
{
    /** Link-achieved demand arriving at the server, GB/s. */
    double demandGBps = 0.0;

    /** Traffic the server's controllers sustained, GB/s. */
    double achievedGBps = 0.0;

    /** Capacity allocated to deployments at tick time, GB. */
    double allocatedGb = 0.0;
};

/** One compute node's aggregate state for one resolved tick. */
struct NodeTickStats
{
    /** CPU time-sharing factor (1 when undersubscribed). */
    double cpuFactor = 1.0;

    /** Achieved local-pool traffic incl. terminating remote (R3). */
    double localTrafficGBps = 0.0;

    /** Achieved remote traffic issued by this node, GB/s. */
    double remoteTrafficGBps = 0.0;

    /** The node's Watcher counter sample (the paper's 7 events). */
    CounterSample counters{};
};

/** Aggregate result of one simulated rack second. */
struct RackTickResult
{
    /** Per-deployment outcome, in input order. */
    std::vector<LoadOutcome> outcomes;

    /** Per-node stats, indexed like Topology nodes. */
    std::vector<NodeTickStats> nodes;

    /** Per-link stats, indexed like Topology links. */
    std::vector<LinkTickStats> links;

    /** Per-server stats, indexed like Topology servers. */
    std::vector<ServerTickStats> servers;
};

/** Cumulative per-link byte accounting across a run. */
struct LinkTotals
{
    /** Total demand that entered the link queue, GB. */
    double offeredGb = 0.0;

    /** Total bytes delivered, GB. */
    double deliveredGb = 0.0;

    /** Total demand stalled behind the link, GB. */
    double queuedGb = 0.0;

    /** Ticks the link spent inside its back-pressure ramp. */
    std::int64_t saturatedTicks = 0;
};

/**
 * Assert the per-link/per-server/per-node conservation laws of one
 * resolved rack tick, re-derived from the outcomes (never trusting the
 * aggregates): per-link offered = achieved + queued with achieved
 * within the derated cap, per-server achieved within the server's DRAM
 * bandwidth, per-node local traffic within the node's local pool, and
 * per-deployment achieved never above its own unimpeded demand.
 *
 * @param loads the tick's input deployments.
 * @param result the resolved tick under test.
 * @param topo the rack description.
 * @param link_bw_scale per-link fault derating (empty = all healthy).
 */
void checkRackTickInvariants(const std::vector<LoadDescriptor> &loads,
                             const RackTickResult &result,
                             const Topology &topo,
                             const std::vector<double> &link_bw_scale = {});

/**
 * Working storage of RackTestbed::tick(), kept between ticks so a
 * steady-state tick allocates nothing.  Every field is rewritten before it is
 * read, so it carries no state from one tick to the next.
 */
struct RackTickScratch
{
    /** Per-node accumulators and pool state. */
    struct Node
    {
        double cpu = 0.0;
        double footprint = 0.0;
        double localDemand = 0.0;
        double remoteTerm = 0.0;
        double localShare = 1.0;
        double localLatencyNs = 0.0;
        double localAchieved = 0.0;
        double llcLoads = 0.0;
        double llcMisses = 0.0;
    };

    /** Per-link throttle, capacity, latency and shares. */
    struct Link
    {
        double throttleRatio = 1.0;
        double baseOffered = 0.0;
        double cap = 0.0;
        double latScale = 1.0;
        double share = 1.0;

        /** Combined link × server × local share of a deployment. */
        double deployShare = 1.0;

        /** Ramped load-to-use latency, ns. */
        double latencyNs = 0.0;
    };

    /** Back-pressured demand of each deployment, GB/s. */
    std::vector<double> loadDemand;
    std::vector<Node> nodes;
    std::vector<Link> links;
    std::vector<double> serverShare;
};

/** The simulated rack. */
class RackTestbed
{
  public:
    /**
     * @param topo validated rack description (copied).
     * @param seed RNG seed for counter measurement noise.
     */
    explicit RackTestbed(Topology topo, std::uint64_t seed = 1);

    /** @return the rack description. */
    const Topology &topology() const { return topo; }

    /**
     * Relative counter noise amplitude (0 disables measurement noise;
     * default 1%).
     */
    void setNoise(double relative_sigma) { noiseSigma = relative_sigma; }

    /**
     * Degrade one link (fault injection): scale its effective bandwidth
     * by `bw_scale` in (0, 1] and its back-pressure latency by
     * `latency_scale` >= 1.  Persists until changed.
     */
    void setLinkFault(std::size_t link, double bw_scale,
                      double latency_scale);

    /** Bandwidth scale setLinkFault last applied to a link. */
    double linkBwFault(std::size_t link) const { return linkBwScale.at(link); }

    /** Latency scale setLinkFault last applied to a link. */
    double
    linkLatencyFault(std::size_t link) const
    {
        return linkLatencyScale.at(link);
    }

    /**
     * Reserve `gb` of a server's capacity for a deployment.
     *
     * @return Geometry error when the server cannot fit the request.
     */
    [[nodiscard]] Result<void> allocate(std::size_t server, double gb);

    /** Return `gb` of previously allocated capacity to a server. */
    void release(std::size_t server, double gb);

    /** Capacity currently allocated on a server, GB. */
    double allocatedGb(std::size_t server) const;

    /** Capacity still allocatable on a server, GB. */
    double availableGb(std::size_t server) const;

    /**
     * Resolve one second of rack execution.
     *
     * Remote deployments must carry a valid (node, server, link)
     * placement triple whose link actually connects that node to that
     * server; local deployments only need a valid node.  While
     * observability is armed the tick reports the testbed.* metrics.
     *
     * @return the resolved tick, held by the rack (its storage is
     *         reused) until the next tick.
     */
    const RackTickResult &tick(const std::vector<LoadDescriptor> &loads);

    /** Cumulative byte accounting of one link. */
    const LinkTotals &linkTotals(std::size_t link) const;

    /**
     * Serialize the evolving state: the noise RNG position, noise
     * sigma, per-link fault scales, per-server allocations, cumulative
     * link totals, per-link back-pressure state and the tick count.  The
     * Topology is configuration and stays out of the payload.
     */
    void saveState(io::BinaryWriter &out) const;

    /** Restore a payload written by saveState(). */
    [[nodiscard]] Result<void> restoreState(io::BinaryReader &in);

  private:
    Topology topo ADRIAS_NOT_CHECKPOINTED(
        "rack description is configuration; the restoring process "
        "rebuilds it from the topology name (see saveState doc)");

    /** Node counter noise (nodes ascending, 7 draws each per tick). */
    Rng rng;

    double noiseSigma = 0.01;

    /** Per-link fault derating, indexed like Topology links. */
    std::vector<double> linkBwScale;
    std::vector<double> linkLatencyScale;

    /** Per-server allocated capacity, GB. */
    std::vector<double> allocated;

    /** Cumulative per-link byte accounting. */
    std::vector<LinkTotals> totals;

    /**
     * Whether each link sat inside its back-pressure ramp last tick
     * (observability: transition events), indexed like Topology links.
     */
    std::vector<std::uint8_t> linkBackpressured;

    /** Ticks resolved so far. */
    std::int64_t tickCount = 0;

    /** Per-tick working storage (see RackTickScratch). */
    RackTickScratch scratch ADRIAS_NOT_CHECKPOINTED(
        "per-tick working storage; fully rewritten by every tick");

    /** The last resolved tick (storage reused across ticks). */
    RackTickResult resolved ADRIAS_NOT_CHECKPOINTED(
        "per-tick output; fully rewritten by every tick");

    /** Apply multiplicative measurement noise. */
    double noisy(double value);

    /** Publish the tick's testbed.* metrics and trace instants
     *  (called only while observability is armed). */
    void observe(const RackTickResult &result);
};

} // namespace adrias::testbed

#endif // ADRIAS_TESTBED_RACK_HH
