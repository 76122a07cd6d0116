/**
 * @file
 * Test helper: the index of the link joining a (node, server) pair of
 * a validated topology.
 */

#ifndef ADRIAS_TESTS_TESTBED_TOPOLOGY_LINK_BETWEEN_HH
#define ADRIAS_TESTS_TESTBED_TOPOLOGY_LINK_BETWEEN_HH

#include <cstddef>
#include <stdexcept>

#include "testbed/topology.hh"

namespace adrias::testbed::testutil
{

/** @throws std::logic_error when `node` has no link to `server`. */
inline std::size_t
linkBetween(const Topology &topo, std::size_t node, std::size_t server)
{
    for (const std::size_t link : topo.linksFrom(node))
        if (topo.link(link).server == server)
            return link;
    throw std::logic_error("no link between the node and the server");
}

} // namespace adrias::testbed::testutil

#endif // ADRIAS_TESTS_TESTBED_TOPOLOGY_LINK_BETWEEN_HH
