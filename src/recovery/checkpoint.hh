/**
 * @file
 * CheckpointManager: periodic crash-consistent snapshots of a set of
 * Checkpointable sections (DESIGN.md §12).
 *
 * A snapshot (`snap-<tick>.adck`) is an in-memory record-file image —
 * a manifest record (format version, tick, section count) followed by
 * one CRC-framed record per attached section, in attach order —
 * published with a single atomic temp-write + rename.  A crash at any
 * byte of the write leaves only a `.tmp` orphan; the previous snapshot
 * stays the newest valid one.
 *
 * Restore walks snapshots newest-first: structural validation (magic,
 * CRCs, manifest, section tags) touches no state, so a truncated,
 * bit-flipped or zero-length snapshot is rejected cleanly and the next
 * older one is tried.  Only a structurally valid snapshot proceeds to
 * section restores; if a section restore then fails (version skew) the
 * fallback re-restores every section from the older snapshot, so no
 * partial state survives.
 *
 * The newest `keep` snapshots are retained (default 2: the snapshot
 * being superseded stays on disk as the fallback in case its successor
 * is later found corrupt).
 */

#ifndef ADRIAS_RECOVERY_CHECKPOINT_HH
#define ADRIAS_RECOVERY_CHECKPOINT_HH

#include <string>
#include <vector>

#include "common/error.hh"
#include "common/io/checkpointable.hh"
#include "common/io/durable_file.hh"
#include "common/types.hh"

namespace adrias::recovery
{

/** Knobs of the snapshot cadence and retention. */
struct CheckpointConfig
{
    /** Directory holding snapshots and journals. */
    std::string dir;

    /** Simulated seconds between snapshots. */
    SimTime intervalSec = 60;

    /** Newest snapshots kept on disk (older ones are pruned). */
    std::size_t keep = 2;
};

/** What CheckpointManager::restoreLatest() found and did. */
struct RestoreOutcome
{
    /** True when a snapshot was restored (false: fresh start). */
    bool restored = false;

    /** Tick of the restored snapshot (0 when !restored). */
    SimTime snapshotTick = 0;

    /** Snapshots rejected (corrupt or unrestorable) before success. */
    std::size_t rejectedSnapshots = 0;
};

/** Writes, prunes and restores multi-section snapshots. */
class CheckpointManager
{
  public:
    explicit CheckpointManager(CheckpointConfig config_);

    /**
     * Register one section.  Attach order is the serialization order
     * and must match between the writing and the recovering process
     * (tags are cross-checked at restore).
     */
    void attach(io::Checkpointable &section);

    /** Install a kill-point hook for snapshot writes (tests only). */
    void setChaosHook(io::WriteChaosHook hook) { chaos = std::move(hook); }

    /** @return true when the cadence calls for a snapshot at `now`. */
    bool
    due(SimTime now) const
    {
        return now - lastTick >= config.intervalSec;
    }

    /** Oldest snapshot tick still on disk (0 when none). */
    SimTime oldestKeptTick() const;

    /** `<dir>/snap-<tick>.adck`. */
    std::string snapshotPath(SimTime tick) const;

    /** Snapshot ticks present on disk, ascending. */
    std::vector<SimTime> snapshotTicks() const;

    /**
     * Serialize every attached section and atomically publish
     * `snap-<now>.adck`, then prune beyond the retention window.
     *
     * @return Io when the write fails (the run can continue — the
     *         previous snapshot is still valid).
     */
    [[nodiscard]] Result<void> checkpointNow(SimTime now);

    /**
     * Restore the newest structurally-valid, fully-restorable
     * snapshot, falling back to older ones on any rejection.
     *
     * No valid snapshot at all is NOT an error — the outcome reports
     * `restored = false` and the caller starts fresh.  An error is
     * returned only when every candidate passed structural validation
     * yet failed a section restore, i.e. attached state may be partial
     * and the caller must rebuild its sections before continuing.
     */
    [[nodiscard]] Result<RestoreOutcome> restoreLatest();

    /** Delete `.tmp` orphans left by a crash mid-write. */
    void removeOrphanTempFiles() const;

  private:
    CheckpointConfig config;
    std::vector<io::Checkpointable *> sections;
    io::WriteChaosHook chaos;
    SimTime lastTick = 0;

    /** Drop all but the newest `keep` snapshots. */
    void pruneSnapshots() const;

    /** Validate + restore one snapshot file. */
    [[nodiscard]] Result<void> restoreSnapshot(const std::string &path,
                                               SimTime expectedTick,
                                               bool &stateTouched);
};

} // namespace adrias::recovery

#endif // ADRIAS_RECOVERY_CHECKPOINT_HH
