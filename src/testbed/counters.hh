/**
 * @file
 * The performance events of the Watcher (paper §V-A): cache, memory and
 * ThymesisFlow channel counters, one sample per one-second tick.
 */

#ifndef ADRIAS_TESTBED_COUNTERS_HH
#define ADRIAS_TESTBED_COUNTERS_HH

#include <array>
#include <cstddef>
#include <string>
#include <vector>

namespace adrias::testbed
{

/** Indices of the monitored performance events. */
enum class PerfEvent : std::size_t
{
    LlcLoads = 0,    ///< LLC_ld: last-level cache loads
    LlcMisses = 1,   ///< LLC_mis: last-level cache misses
    MemLoads = 2,    ///< MEM_ld: local DRAM loads
    MemStores = 3,   ///< MEM_st: local DRAM stores
    RemoteTx = 4,    ///< RMT_tx: flits transmitted on the channel
    RemoteRx = 5,    ///< RMT_rx: flits received on the channel
    ChannelLat = 6,  ///< CHAN_lat: channel latency (cycles)
};

/** Number of monitored events. */
inline constexpr std::size_t kNumPerfEvents = 7;

/** One tick's worth of monitored events. */
using CounterSample = std::array<double, kNumPerfEvents>;

/** @return the canonical short name of an event (e.g. "LLC_ld"). */
std::string perfEventName(PerfEvent event);

/** @return all events in index order. */
const std::vector<PerfEvent> &allPerfEvents();

} // namespace adrias::testbed

#endif // ADRIAS_TESTBED_COUNTERS_HH
