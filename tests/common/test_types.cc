/** @file Unit tests for common/types. */

#include <gtest/gtest.h>

#include "common/types.hh"

namespace adrias
{
namespace
{

TEST(Types, MemoryModeToString)
{
    EXPECT_EQ(toString(MemoryMode::Local), "local");
    EXPECT_EQ(toString(MemoryMode::Remote), "remote");
}

TEST(Types, WorkloadClassToString)
{
    EXPECT_EQ(toString(WorkloadClass::BestEffort), "best-effort");
    EXPECT_EQ(toString(WorkloadClass::LatencyCritical), "latency-critical");
    EXPECT_EQ(toString(WorkloadClass::Interference), "interference");
}

} // namespace
} // namespace adrias
