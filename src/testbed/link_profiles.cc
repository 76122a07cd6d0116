#include "testbed/link_profiles.hh"

#include "common/logging.hh"

namespace adrias::testbed
{

double
linkLatencyCycles(const LinkProfile &profile, double pressure)
{
    if (pressure < 0.0)
        panic("linkLatencyCycles: negative pressure");
    if (pressure <= profile.rampStart)
        return profile.latencyBaseCycles;
    if (pressure >= profile.rampEnd)
        return profile.latencySatCycles;
    const double frac = (pressure - profile.rampStart) /
                        (profile.rampEnd - profile.rampStart);
    return profile.latencyBaseCycles +
           frac * (profile.latencySatCycles - profile.latencyBaseCycles);
}

} // namespace adrias::testbed
