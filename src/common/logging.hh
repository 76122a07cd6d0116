/**
 * @file
 * Minimal logging used across the library.
 *
 * Follows the gem5 convention of separating user errors (fatal) from
 * internal invariant violations (panic).  All output goes to stderr so
 * bench binaries can print clean tables on stdout, one whole line per
 * message: a process-wide mutex serializes writers, so concurrent
 * threads interleave lines, never characters.
 */

#ifndef ADRIAS_COMMON_LOGGING_HH
#define ADRIAS_COMMON_LOGGING_HH

#include <string>

namespace adrias
{

/** Emit a warning about questionable but survivable conditions. */
void logWarn(const std::string &message);
/** Emit an error message (does not terminate). */
void logError(const std::string &message);

/**
 * Abort on a user-caused unrecoverable condition (bad configuration,
 * invalid arguments).  Mirrors gem5's fatal().
 *
 * @throws std::runtime_error always.
 */
[[noreturn]] void fatal(const std::string &message);

/**
 * Abort on an internal invariant violation (a bug in this library).
 * Mirrors gem5's panic().
 *
 * @throws std::logic_error always.
 */
[[noreturn]] void panic(const std::string &message);

} // namespace adrias

#endif // ADRIAS_COMMON_LOGGING_HH
