/**
 * @file
 * Runtime state of one deployed workload instance.
 *
 * Instances advance tick by tick against the testbed's contention
 * outcomes: best-effort jobs accumulate progress until their work is
 * done, latency-critical servers record each tick's request-latency
 * scale under a closed-loop (memtier-like) client model, and iBench
 * trashers simply occupy resources for a fixed wall-clock duration.
 */

#ifndef ADRIAS_WORKLOADS_WORKLOAD_HH
#define ADRIAS_WORKLOADS_WORKLOAD_HH

#include <initializer_list>
#include <memory>
#include <optional>
#include <vector>

#include "common/error.hh"
#include "common/io/binary.hh"
#include "common/mutex.hh"
#include "common/thread_annotations.hh"
#include "common/types.hh"
#include "testbed/load.hh"
#include "workloads/lc_latency.hh"
#include "workloads/spec.hh"

namespace adrias::workloads
{

/**
 * A deployed, running (or finished) workload.
 *
 * Thread-safe: the mutable client/progress state (latency scales,
 * progress, migration state) is guarded by an internal mutex so a
 * runtime-management thread can read metrics while the scenario loop
 * advances the instance.  Identity (id, spec, arrival) is immutable
 * and unguarded.
 */
class WorkloadInstance
{
  public:
    /**
     * @param id unique deployment id.
     * @param spec behaviour model.
     * @param mode memory placement chosen by the orchestrator.
     * @param arrival simulation time of deployment.
     * @param seed latency-noise seed (lc_latency.hh).
     * @param load_factor client-load multiplier for LC apps (1 = the
     *        paper's nominal memtier load).
     */
    WorkloadInstance(DeploymentId id, const WorkloadSpec &spec,
                     MemoryMode mode, SimTime arrival,
                     std::uint64_t seed, double load_factor = 1.0);

    /**
     * Moves transfer the run state into a fresh lock.  Not
     * concurrency-safe: only move an instance no other thread is
     * observing.
     */
    WorkloadInstance(WorkloadInstance &&other) noexcept
        ADRIAS_NO_THREAD_SAFETY_ANALYSIS;
    WorkloadInstance &operator=(WorkloadInstance &&other) noexcept
        ADRIAS_NO_THREAD_SAFETY_ANALYSIS;

    WorkloadInstance(const WorkloadInstance &) = delete;
    WorkloadInstance &operator=(const WorkloadInstance &) = delete;

    /** @return the load this instance presents to the testbed now. */
    testbed::LoadDescriptor load() const ADRIAS_EXCLUDES(mu);

    /**
     * Consume one tick's contention outcome.
     *
     * @param outcome the testbed's verdict for this instance.
     * @param now current simulation time (end of the tick).
     */
    void advance(const testbed::LoadOutcome &outcome, SimTime now)
        ADRIAS_EXCLUDES(mu);

    /** @return true once the instance's run model has completed. */
    bool
    finished() const ADRIAS_EXCLUDES(mu)
    {
        MutexLock lock(mu);
        return done;
    }

    DeploymentId id() const { return deploymentId; }
    const WorkloadSpec &spec() const { return *specification; }

    /** @return current placement (changes when a migration lands). */
    MemoryMode
    mode() const ADRIAS_EXCLUDES(mu)
    {
        MutexLock lock(mu);
        return memoryMode;
    }

    SimTime arrivalTime() const { return arrival; }

    /** Wall-clock execution time; only meaningful once finished. */
    double executionTimeSec() const ADRIAS_EXCLUDES(mu);

    /** LC: the q-quantile of all request latencies so far, ms. */
    double tailLatencyMs(double q) const ADRIAS_EXCLUDES(mu);

    /** LC: tailLatencyMs at each of the ascending `qs` in one pass,
     *  with the work it took (lcLatencyTail). */
    LatencyTail tailLatenciesMs(std::initializer_list<double> qs) const
        ADRIAS_EXCLUDES(mu);

    /** Mean slowdown observed across ticks so far. */
    double meanSlowdown() const ADRIAS_EXCLUDES(mu);

    /** Total bytes moved over the ThymesisFlow channel, GB. */
    double
    remoteTrafficGB() const ADRIAS_EXCLUDES(mu)
    {
        MutexLock lock(mu);
        return remoteGb;
    }

    /**
     * Request an L2 migration to the other memory pool (paper §II's
     * runtime-management layer, complementary to Adrias).
     *
     * The instance pauses for @p pause_sec seconds (data copy over the
     * channel), during which it makes no progress but still occupies
     * resources; afterwards it resumes in @p target mode.  No-op when
     * already in @p target or mid-migration.
     *
     * @return true if a migration was started.
     */
    bool requestMigration(MemoryMode target, double pause_sec)
        ADRIAS_EXCLUDES(mu);

    /** @return true while a migration pause is in effect. */
    bool
    migrating() const ADRIAS_EXCLUDES(mu)
    {
        MutexLock lock(mu);
        return migratingLocked();
    }

    /** @return number of completed migrations. */
    std::size_t
    migrationCount() const ADRIAS_EXCLUDES(mu)
    {
        MutexLock lock(mu);
        return migrationsDone;
    }

    /**
     * Serialize the complete run state.  The spec is recorded by name
     * (specs are static registry entries, not runtime state); the
     * noise seed and the per-tick latency scales determine every
     * latency sample, so restored tail percentiles are exact.
     */
    void saveState(io::BinaryWriter &out) const ADRIAS_EXCLUDES(mu);

    /**
     * Rebuild an instance from a saveState() payload.  Fails (typed)
     * when the payload is truncated, carries an unknown spec name, an
     * out-of-range enum value or a latency scale that is negative or
     * not finite.
     */
    [[nodiscard]] static Result<std::unique_ptr<WorkloadInstance>>
    restoreFromState(io::BinaryReader &in);

  private:
    // Immutable identity (set at construction, never guarded).
    DeploymentId deploymentId ADRIAS_LOCK_FREE(
        "immutable identity, set at construction");
    const WorkloadSpec *specification;
    SimTime arrival ADRIAS_LOCK_FREE(
        "immutable identity, set at construction");
    double loadFactor ADRIAS_LOCK_FREE(
        "immutable identity, set at construction");
    std::uint64_t noiseSeed ADRIAS_LOCK_FREE(
        "immutable identity, set at construction");

    /** Guards every mutable member below. */
    mutable Mutex mu;

    MemoryMode memoryMode ADRIAS_GUARDED_BY(mu);

    bool done ADRIAS_GUARDED_BY(mu) = false;
    SimTime completion ADRIAS_GUARDED_BY(mu) = -1;

    // BE / interference progress
    /** Unimpeded-equivalent seconds done. */
    double progressSec ADRIAS_GUARDED_BY(mu) = 0.0;
    /** Wall-clock seconds so far. */
    double elapsedSec ADRIAS_GUARDED_BY(mu) = 0.0;

    // LC request accounting (the memtier-style client state)
    double requestsServed ADRIAS_GUARDED_BY(mu) = 0.0;
    /** Noiseless request latency of each LC tick, ms (lc_latency.hh). */
    std::vector<double> latencyScales ADRIAS_GUARDED_BY(mu);

    // aggregates
    double slowdownSum ADRIAS_GUARDED_BY(mu) = 0.0;
    std::size_t ticks ADRIAS_GUARDED_BY(mu) = 0;
    double remoteGb ADRIAS_GUARDED_BY(mu) = 0.0;

    // L2 migration state
    /** Pause seconds left. */
    double migrationRemaining ADRIAS_GUARDED_BY(mu) = 0.0;
    double migrationPauseTotal ADRIAS_GUARDED_BY(mu) = 1.0;
    MemoryMode migrationTarget ADRIAS_GUARDED_BY(mu) = MemoryMode::Local;
    std::size_t migrationsDone ADRIAS_GUARDED_BY(mu) = 0;

    bool
    migratingLocked() const ADRIAS_REQUIRES(mu)
    {
        return migrationRemaining > 0.0;
    }

    /** Base server utilization at nominal load (queueing model). */
    static constexpr double kBaseUtilization = 0.6;

    void advanceLatencyCritical(const testbed::LoadOutcome &outcome)
        ADRIAS_REQUIRES(mu);
};

} // namespace adrias::workloads

#endif // ADRIAS_WORKLOADS_WORKLOAD_HH
