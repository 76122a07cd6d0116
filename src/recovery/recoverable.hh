/**
 * @file
 * RecoverableScenario: a scenario run that survives being killed at
 * any instant (DESIGN.md §12).
 *
 * Composition of the recovery machinery around a ScenarioEngine:
 *
 *  - every `checkpointEverySec` simulated seconds the CheckpointManager
 *    snapshots the engine plus any attached sections (policy state)
 *    into `snap-<tick>.adck`, atomically;
 *  - between snapshots every placement decision is appended to the
 *    current epoch's journal BEFORE it takes effect;
 *  - start() recovers whatever a previous (crashed) process left in
 *    the directory: newest valid snapshot, tolerant journal read with
 *    torn-tail compaction, replay queueing — or a fresh start when the
 *    directory is empty.
 *
 * The recovered run is bitwise identical to an uninterrupted one: the
 * kill-point tests (ctest -L recovery) assert equality of the full
 * ScenarioResult serialization across every crash site.
 */

#ifndef ADRIAS_RECOVERY_RECOVERABLE_HH
#define ADRIAS_RECOVERY_RECOVERABLE_HH

#include <memory>
#include <string>
#include <vector>

#include "common/error.hh"
#include "fault/crash.hh"
#include "recovery/checkpoint.hh"
#include "recovery/journal.hh"
#include "scenario/engine.hh"

namespace adrias::recovery
{

/** Knobs of the crash-safety envelope around one scenario. */
struct RecoveryConfig
{
    /** Directory for snapshots and journals (created on start()). */
    std::string dir;

    /** Simulated seconds between snapshots. */
    SimTime checkpointEverySec = 60;

    /** Newest snapshots retained. */
    std::size_t keepSnapshots = 2;
};

/** What start() recovered (all zeros on a fresh start). */
struct RecoveryReport
{
    /** True when a snapshot was restored. */
    bool restored = false;

    /** Tick of the restored snapshot. */
    SimTime snapshotTick = 0;

    /** Journaled decisions queued for replay verification. */
    std::size_t replayedDecisions = 0;

    /** Corrupt/unrestorable snapshots skipped. */
    std::size_t rejectedSnapshots = 0;

    /** Journal epochs whose torn tail was compacted away. */
    std::size_t tornTails = 0;
};

/** A checkpointed, journaled, crash-recoverable scenario run. */
// NOLINTNEXTLINE(unused-api): recovery code, run by the kill matrix.
class RecoverableScenario
{
  public:
    RecoverableScenario(scenario::ScenarioConfig config,
                        RecoveryConfig recovery);

    /**
     * Register an extra snapshot section (e.g. the placement policy).
     * Must be called before start(); attach order must match the
     * process being recovered.
     */
    // NOLINTNEXTLINE(unused-api): recovery code, as RecoverableScenario.
    void attachSection(io::Checkpointable &section);

    /** Arm kill points for the chaos tests (nullptr to disarm). */
    // NOLINTNEXTLINE(unused-api): test seam for the kill matrix.
    void setCrashInjector(fault::CrashInjector *injector);

    /**
     * Recover from `dir` (or start fresh when it is empty) and open
     * the journal for appending.  Call exactly once, before run().
     *
     * @return the recovery report, or an error when the on-disk state
     *         is unusable (every snapshot structurally valid but
     *         unrestorable, unreadable journal, ...) or the topology
     *         has more than one node (the journal records the memory
     *         mode only, which is the whole decision on one node).
     */
    [[nodiscard]] Result<RecoveryReport> start();

    /**
     * Drive the scenario to completion, checkpointing on cadence.
     *
     * @pre start() succeeded.
     * @throws fault::InjectedCrash at an armed kill point; the on-disk
     *         state then matches an abrupt process death and a new
     *         RecoverableScenario over the same directory resumes it.
     */
    scenario::ScenarioResult
    run(scenario::ClusterPolicy &policy,
        scenario::RuntimePolicy *runtime = nullptr);

    /** The underlying engine (tests observe now()/pendingReplay()). */
    scenario::ScenarioEngine &engine() { return *engineState; }

    /** Report of the last start(). */
    const RecoveryReport &report() const { return lastReport; }

    /** `<dir>/journal-<epochTick>.adj`. */
    std::string journalPath(SimTime epochTick) const;

  private:
    scenario::ScenarioConfig config;
    RecoveryConfig recovery;
    CheckpointManager manager;
    DecisionJournal journal;
    std::unique_ptr<scenario::ScenarioEngine> engineState;
    fault::CrashInjector *crash = nullptr;
    RecoveryReport lastReport;
    bool started = false;

    /** Epoch ticks of journal files on disk, ascending. */
    std::vector<SimTime> journalTicks() const;

    /** Snapshot + journal rotation when the cadence is due. */
    void maybeCheckpoint();

    /** Close the old epoch, open `journal-<snapTick>.adj`, prune. */
    void rotateJournal(SimTime snapTick);

    /** (Re)install the MidJournalAppend kill point on the journal. */
    void wireJournalChaos();
};

} // namespace adrias::recovery

#endif // ADRIAS_RECOVERY_RECOVERABLE_HH
