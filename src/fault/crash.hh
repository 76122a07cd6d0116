/**
 * @file
 * Kill-point crash injection for recovery testing.
 *
 * A CrashInjector arms one crash site at one simulation tick; the
 * recovery layer calls maybeCrash() at each site and, when the plan
 * matches, an InjectedCrash unwinds the process exactly as a SIGKILL
 * would leave it — everything flushed so far is on disk, nothing after
 * the kill point exists.  The DurableFile write paths flush before
 * every chaos hook precisely so this equivalence holds, which lets the
 * kill-point tests run in-process (fast, ASan-friendly) while still
 * exercising real torn-file states.
 */

#ifndef ADRIAS_FAULT_CRASH_HH
#define ADRIAS_FAULT_CRASH_HH

#include <cstdint>
#include <stdexcept>
#include <string>

#include "common/types.hh"

namespace adrias::fault
{

/** Where in the checkpoint/journal machinery the crash fires. */
enum class CrashSite : std::uint8_t
{
    /** Mid-checkpoint: half the snapshot payload written to the temp
     *  file, rename not reached. */
    MidCheckpoint,

    /** Snapshot fully written and flushed to the temp file, crash just
     *  before the atomic rename publishes it. */
    BeforeCheckpointRename,

    /** Mid-journal-append: record header + half the payload flushed,
     *  rest lost (torn tail). */
    MidJournalAppend,

    /** Between ticks, outside any write (clean kill). */
    BetweenTicks,
};

/** @return short site name ("mid-checkpoint", ...). */
std::string toString(CrashSite site);

/** One planned kill point. */
struct CrashPlan
{
    CrashSite site = CrashSite::BetweenTicks;

    /** Simulation tick at (or after) which the site fires. */
    SimTime tick = 0;
};

/** Thrown at the armed kill point; simulates abrupt termination. */
class InjectedCrash : public std::runtime_error
{
  public:
    explicit InjectedCrash(const std::string &what_arg)
        : std::runtime_error(what_arg)
    {
    }
};

/**
 * Arms at most one CrashPlan and fires it exactly once.
 *
 * Deterministic: a crash fires at the first maybeCrash(site, now) call
 * with the armed site and now >= the armed tick.  `fired()` stays true
 * afterwards so a driver can tell a planned kill from a real failure.
 */
class CrashInjector
{
  public:
    CrashInjector() = default;

    explicit CrashInjector(CrashPlan plan_) : plan(plan_), armed(true) {}

    /** @return true while a plan is armed and has not fired. */
    bool pending() const { return armed && !hasFired; }

    /** @return true once the planned crash was thrown. */
    // NOLINTNEXTLINE(unused-api): test seam; the kill matrix reads it.
    bool fired() const { return hasFired; }

    /**
     * Fire the planned crash when `site` matches and `now` has reached
     * the planned tick.
     *
     * @throws InjectedCrash on a match; returns otherwise.
     */
    void maybeCrash(CrashSite site, SimTime now);

  private:
    CrashPlan plan;
    bool armed = false;
    bool hasFired = false;
};

} // namespace adrias::fault

#endif // ADRIAS_FAULT_CRASH_HH
