#include "common/types.hh"

namespace adrias
{

std::string
toString(MemoryMode mode)
{
    switch (mode) {
      case MemoryMode::Local:
        return "local";
      case MemoryMode::Remote:
        return "remote";
    }
    return "unknown";
}

std::string
toString(WorkloadClass cls)
{
    switch (cls) {
      case WorkloadClass::BestEffort:
        return "best-effort";
      case WorkloadClass::LatencyCritical:
        return "latency-critical";
      case WorkloadClass::Interference:
        return "interference";
    }
    return "unknown";
}

} // namespace adrias
