/**
 * @file
 * The rack the CI topology matrix selects: ADRIAS_TOPOLOGY names it
 * (default "rack-2x2-cxl"), so one test binary covers the whole
 * topology x thread-count matrix.
 */

#ifndef ADRIAS_TESTS_TOPOLOGY_UNDER_TEST_HH
#define ADRIAS_TESTS_TOPOLOGY_UNDER_TEST_HH

#include <cstdlib>
#include <string>

namespace adrias::testbed
{

inline std::string
topologyUnderTest()
{
    const char *env = std::getenv("ADRIAS_TOPOLOGY");
    return env != nullptr && *env != '\0' ? env : "rack-2x2-cxl";
}

} // namespace adrias::testbed

#endif // ADRIAS_TESTS_TOPOLOGY_UNDER_TEST_HH
