/**
 * @file
 * Calibration constants of one simulated compute node.
 *
 * Values mirror the borrower node of the paper's prototype (§III, §IV):
 * an AC922 POWER9 with 64 logical cores, 2x10 MB LLC and DDR4 that
 * sustains ~120 Gbps.  The remote channel is not part of a node: every
 * link carries its own LinkProfile (link_profiles.hh), and the paper's
 * OpenCAPI/FPGA channel is kThymesisFlowProfile.
 */

#ifndef ADRIAS_TESTBED_PARAMS_HH
#define ADRIAS_TESTBED_PARAMS_HH

namespace adrias::testbed
{

/** Tunable node hardware model; defaults reproduce the paper's node. */
struct TestbedParams
{
    /** Logical cores on the borrower node. */
    double cores = 64.0;

    /** Aggregate LLC capacity (two sockets x 10 MB), in MB. */
    double llcCapacityMb = 20.0;

    /** Sustained local DRAM bandwidth, GB/s (~120 Gbps). */
    double localBwGBps = 15.0;

    /** Local DRAM load-to-use latency, ns (paper: ~80 ns). */
    double localLatencyNs = 80.0;

    /**
     * Mild local-latency inflation exponent under local bandwidth
     * contention (queueing in the memory controllers).
     */
    double localLatencyInflation = 0.35;

    /** Fraction of memory traffic that is loads (rest: stores). */
    double loadStoreSplit = 0.72;
};

} // namespace adrias::testbed

#endif // ADRIAS_TESTBED_PARAMS_HH
