/**
 * @file
 * Write-ahead decision journal (DESIGN.md §12).
 *
 * Checkpoints are periodic; everything that happens between two of
 * them must be reconstructible after a crash.  The simulation itself
 * is deterministic given its checkpointed RNG streams, so the journal
 * only needs to record the one externally-visible commitment made each
 * tick: placement decisions.  Each decision is appended — and flushed
 * — BEFORE it takes effect (the DecisionSink contract), so the on-disk
 * journal is always at least as advanced as the in-memory run.
 *
 * Recovery replays an epoch's journal against the restored engine: the
 * policy re-derives every decision from its restored RNG stream and
 * the engine cross-checks it against the journaled one, turning any
 * determinism bug into a loud panic instead of a silent fork.
 *
 * One journal file per checkpoint epoch (journal-<snapshotTick>.adj):
 * rotating the journal together with the snapshot keeps each file
 * exactly the delta since one snapshot, so fallback to an older
 * snapshot just replays more epochs.
 */

#ifndef ADRIAS_RECOVERY_JOURNAL_HH
#define ADRIAS_RECOVERY_JOURNAL_HH

#include <string>
#include <vector>

#include "common/error.hh"
#include "common/io/durable_file.hh"
#include "scenario/engine.hh"

namespace adrias::recovery
{

/** Append-only durable log of placement decisions for one epoch. */
class DecisionJournal : public scenario::DecisionSink
{
  public:
    /**
     * Open an epoch file: truncate + header for a new epoch, or
     * position after existing records (`append` = true) to continue
     * the epoch a crash interrupted.
     */
    [[nodiscard]] Result<void> open(const std::string &path,
                                    bool append = false);

    /** Flush and close the current epoch file. */
    void close();

    /** @return true while an epoch file is open. */
    bool isOpen() const { return writer.isOpen(); }

    /** Install a kill-point hook on the underlying writer. */
    void
    setChaosHook(io::WriteChaosHook hook)
    {
        writer.setChaosHook(std::move(hook));
    }

    /**
     * DecisionSink: make `decision` durable before it is applied.
     *
     * A genuine I/O failure here breaks the write-ahead guarantee —
     * continuing would let a later crash lose an applied decision — so
     * it is fatal() rather than a soft error.
     */
    void onDecision(const scenario::PlacementDecision &decision) override;

    /** Binary payload of one journal record. */
    static std::string encode(const scenario::PlacementDecision &decision);

    /** Inverse of encode(). @return Truncated/BadNumber on skew. */
    [[nodiscard]] static Result<scenario::PlacementDecision>
    decode(std::string_view payload);

    /** Decisions recovered from one epoch file. */
    struct LoadResult
    {
        std::vector<scenario::PlacementDecision> decisions;

        /** True when a torn/corrupt tail was dropped and compacted. */
        bool tornTail = false;

        /** Bytes the compaction discarded. */
        std::size_t droppedBytes = 0;
    };

    /**
     * Read an epoch file tolerantly and, when the tail is torn (a
     * crash mid-append), atomically rewrite the file without the torn
     * bytes so a later open(append) continues from a clean frame
     * boundary.
     *
     * @return Io/Truncated/BadHeader when the file is unusable, or a
     *         decode error when a CRC-valid record fails to parse
     *         (version skew, not corruption).
     */
    [[nodiscard]] static Result<LoadResult>
    loadAndCompact(const std::string &path);

  private:
    io::RecordFileWriter writer;
    std::string path;
};

} // namespace adrias::recovery

#endif // ADRIAS_RECOVERY_JOURNAL_HH
