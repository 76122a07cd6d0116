/** @file Unit tests for common/logging. */

#include <gtest/gtest.h>

#include <stdexcept>

#include "common/logging.hh"

namespace adrias
{
namespace
{

TEST(Logging, FatalThrowsRuntimeError)
{
    EXPECT_THROW(fatal("user misconfiguration"), std::runtime_error);
}

TEST(Logging, PanicThrowsLogicError)
{
    EXPECT_THROW(panic("invariant broken"), std::logic_error);
}

TEST(Logging, FatalMessageIsPreserved)
{
    try {
        fatal("bad beta value");
        FAIL() << "fatal() must throw";
    } catch (const std::runtime_error &err) {
        EXPECT_NE(std::string(err.what()).find("bad beta value"),
                  std::string::npos);
    }
}

} // namespace
} // namespace adrias
