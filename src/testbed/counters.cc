#include "testbed/counters.hh"

#include "common/logging.hh"

namespace adrias::testbed
{

std::string
perfEventName(PerfEvent event)
{
    switch (event) {
      case PerfEvent::LlcLoads:
        return "LLC_ld";
      case PerfEvent::LlcMisses:
        return "LLC_mis";
      case PerfEvent::MemLoads:
        return "MEM_ld";
      case PerfEvent::MemStores:
        return "MEM_st";
      case PerfEvent::RemoteTx:
        return "RMT_tx";
      case PerfEvent::RemoteRx:
        return "RMT_rx";
      case PerfEvent::ChannelLat:
        return "CHAN_lat";
    }
    panic("unknown PerfEvent");
}

const std::vector<PerfEvent> &
allPerfEvents()
{
    static const std::vector<PerfEvent> events{
        PerfEvent::LlcLoads,  PerfEvent::LlcMisses, PerfEvent::MemLoads,
        PerfEvent::MemStores, PerfEvent::RemoteTx,  PerfEvent::RemoteRx,
        PerfEvent::ChannelLat,
    };
    return events;
}

} // namespace adrias::testbed
