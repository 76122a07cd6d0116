/**
 * @file
 * The four benchmark workloads (see README.md for why each exists).
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>

#include "report.hh"

namespace perfbench
{

/** Command-line options of one benchmark process. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 0;

    /** Length of the measured phase(s), host seconds. */
    double seconds = 10.0;

    /** Add the traced phase and report per-layer metrics. */
    bool trace = false;

    /** Smoke-test sizes: every stage runs, at a fraction of the cost. */
    bool tiny = false;
};

/** @return true for train, orchestrate, serve and rack. */
bool knownWorkload(const std::string &name);

/** Set up, measure and check one workload. */
Report runWorkload(const Options &options);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
