/**
 * @file
 * Fundamental value types shared across the Adrias code base.
 *
 * The simulator is time-stepped at a one-second tick (matching the
 * Watcher's 1 Hz sampling of performance events), so simulation time is
 * carried as a whole number of seconds.
 */

#ifndef ADRIAS_COMMON_TYPES_HH
#define ADRIAS_COMMON_TYPES_HH

#include <cstdint>
#include <string>

namespace adrias
{

/** Simulation time, in whole seconds since scenario start. */
using SimTime = std::int64_t;

/** Unique identifier of a deployed workload instance. */
using DeploymentId = std::uint64_t;

/** Memory allocation mode for a deployment (the decision Adrias makes). */
enum class MemoryMode : std::uint8_t
{
    Local,  ///< allocate on the borrower node's own DRAM
    Remote, ///< allocate on the lender node via the ThymesisFlow channel
};

/** Workload class: best-effort (throughput) vs latency-critical (QoS). */
enum class WorkloadClass : std::uint8_t
{
    BestEffort,
    LatencyCritical,
    Interference, ///< iBench resource-trashing microbenchmark
};

/** @return human-readable name of a memory mode ("local"/"remote"). */
std::string toString(MemoryMode mode);

/** @return human-readable name of a workload class. */
std::string toString(WorkloadClass cls);

} // namespace adrias

#endif // ADRIAS_COMMON_TYPES_HH
