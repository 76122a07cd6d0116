/**
 * @file
 * Runtime invariant checks for the simulator's conservation laws.
 *
 * ADRIAS_INVARIANT(cond, ...) asserts a physical/structural invariant
 * (achieved bandwidth below pool caps, non-negative latencies,
 * monotonic watcher timestamps, ...).  The checks are compiled in for
 * Debug/RelWithDebInfo and sanitizer builds (the CMake option
 * ADRIAS_INVARIANTS, default ON) and compiled out entirely for Release
 * so the hot tick path carries zero cost; the compiled-out form still
 * `sizeof`s the condition so it stays syntactically checked and its
 * operands stay "used".
 *
 * A violation routes through an installable handler.  The default
 * handler panic()s (throws std::logic_error); tests install a counting
 * or recording handler via invariant::setHandler() to prove each check
 * fires on deliberately corrupted state without tearing the process
 * down.
 *
 * NOTE: the *_LE/_GE/_FINITE convenience forms evaluate their operands
 * a second time when the check fails (to format the message); keep the
 * operands side-effect free.
 */

#ifndef ADRIAS_COMMON_INVARIANT_HH
#define ADRIAS_COMMON_INVARIANT_HH

#include <string>

namespace adrias::invariant
{

/** Compile-time flag: are ADRIAS_INVARIANT checks active? */
#ifdef ADRIAS_ENABLE_INVARIANTS
inline constexpr bool kEnabled = true;
#else
inline constexpr bool kEnabled = false;
#endif

/** Everything known about one failed check. */
struct Violation
{
    /** Stringified condition that evaluated false. */
    const char *condition = "";

    /** Source location of the check. */
    const char *file = "";
    int line = 0;

    /** Optional caller-supplied context ("achieved=12.3 cap=11.0"). */
    std::string message;

    /** "invariant violated: <cond> (<msg>) at file:line" */
    std::string toString() const;
};

/** Receives every violation; may return (to continue) or throw. */
using Handler = void (*)(const Violation &);

/**
 * Install a new violation handler.
 *
 * @param handler replacement, or nullptr to restore the default
 *        (panic, i.e. throw std::logic_error).
 * @return the previously installed handler (for restoration).
 */
// NOLINTNEXTLINE(unused-api): test seam; tests record violations.
Handler setHandler(Handler handler);

/** Route a failed check to the current handler (macro plumbing). */
void fail(const char *condition, const char *file, int line,
          std::string message = {});

} // namespace adrias::invariant

#ifdef ADRIAS_ENABLE_INVARIANTS

/**
 * Assert `cond`; optional second argument is a std::string message
 * built only when the check fails.
 */
#define ADRIAS_INVARIANT(cond, ...)                                        \
    ((cond) ? static_cast<void>(0)                                         \
            : ::adrias::invariant::fail(#cond, __FILE__,                   \
                                        __LINE__ __VA_OPT__(, )            \
                                            __VA_ARGS__))

#else

// Compiled out: never evaluates cond (or the message expression) but
// keeps both syntactically alive so Release builds can't bit-rot them.
#define ADRIAS_INVARIANT(cond, ...)                                        \
    do {                                                                   \
        (void)sizeof((cond));                                              \
    } while (false)

#endif // ADRIAS_ENABLE_INVARIANTS

/** Assert a <= b, reporting both values on failure. */
#define ADRIAS_INVARIANT_LE(a, b)                                          \
    ADRIAS_INVARIANT((a) <= (b), #a "=" + std::to_string(a) +              \
                                     " > " #b "=" + std::to_string(b))

/** Assert a >= b, reporting both values on failure. */
#define ADRIAS_INVARIANT_GE(a, b)                                          \
    ADRIAS_INVARIANT((a) >= (b), #a "=" + std::to_string(a) +              \
                                     " < " #b "=" + std::to_string(b))

/** Assert x is finite (not NaN/Inf), reporting it on failure. */
#define ADRIAS_INVARIANT_FINITE(x)                                         \
    ADRIAS_INVARIANT(std::isfinite(x), #x "=" + std::to_string(x))

#endif // ADRIAS_COMMON_INVARIANT_HH
