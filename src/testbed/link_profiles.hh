/**
 * @file
 * Named interconnect tiers for disaggregated-memory links.
 *
 * One table is the single source of truth for link latency/bandwidth
 * constants: the paper's ThymesisFlow prototype channel (observations
 * R1/R2 of §IV), a CXL-like coherent-fabric tier, and an RDMA-like
 * network tier.  TestbedParams defaults, the rack Topology builders and
 * the benches all pull from here, so a calibration change lands
 * everywhere at once instead of drifting between copies.
 */

#ifndef ADRIAS_TESTBED_LINK_PROFILES_HH
#define ADRIAS_TESTBED_LINK_PROFILES_HH


namespace adrias::testbed
{

/**
 * Calibration of one link tier: sustained bandwidth, load-to-use
 * latency, and the back-pressure latency ramp (base → saturation
 * between rampStart and rampEnd demand pressure).
 */
struct LinkProfile
{
    /** Canonical tier name ("thymesisflow", "cxl", "rdma"). */
    const char *name = "thymesisflow";

    /** Effective data throughput cap, GB/s. */
    double bandwidthGBps = 0.3125;

    /** Remote load-to-use latency at base pressure, ns. */
    double latencyNs = 900.0;

    /** Link latency in cycles at low load. */
    double latencyBaseCycles = 350.0;

    /** Link latency plateau under back-pressure, cycles. */
    double latencySatCycles = 900.0;

    /** Demand pressure (offered / capacity) where the ramp begins. */
    double rampStart = 1.2;

    /** Pressure at which latency reaches the saturation plateau. */
    double rampEnd = 2.6;

    /** Flit size on the link, bytes. */
    double flitBytes = 32.0;
};

/**
 * The paper's OpenCAPI/FPGA ThymesisFlow channel: ~2.5 Gbps effective
 * throughput (R1, three orders of magnitude under DDR4) with the
 * 350 → 900 cycle latency step under saturation (R2).
 */
inline constexpr LinkProfile kThymesisFlowProfile{
    "thymesisflow", 0.3125, 900.0, 350.0, 900.0, 1.2, 2.6, 32.0};

/**
 * CXL-like coherent fabric: an order of magnitude more bandwidth and a
 * ~3x lower load-to-use latency than the FPGA prototype, with a short
 * queueing ramp (credit-based flow control saturates early).
 */
inline constexpr LinkProfile kCxlProfile{
    "cxl", 4.0, 280.0, 120.0, 300.0, 1.0, 2.0, 64.0};

/**
 * RDMA-like network tier: bandwidth between the two, but a much longer
 * round-trip (NIC + network stack) and a deep-queue ramp that keeps
 * absorbing offered load well past saturation.
 */
inline constexpr LinkProfile kRdmaProfile{
    "rdma", 1.5, 1600.0, 500.0, 1500.0, 1.1, 3.0, 256.0};

/**
 * Back-pressure latency of one link tier (observation R2 generalized):
 * constant at low pressure, linear ramp between rampStart and rampEnd,
 * plateau above.
 *
 * @param pressure offered demand divided by effective capacity.
 */
double linkLatencyCycles(const LinkProfile &profile, double pressure);

} // namespace adrias::testbed

#endif // ADRIAS_TESTBED_LINK_PROFILES_HH
