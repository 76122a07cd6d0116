/**
 * @file
 * The DurableFile layer: every byte the simulator persists goes
 * through here (lint rule `raw-ofstream` enforces it), so no code path
 * can leave a half-written file behind.
 *
 * Two primitives:
 *
 *  - atomicWriteFile(): whole-file replacement via temp-write +
 *    rename.  Readers only ever observe the old or the new content; a
 *    crash mid-write leaves a `.tmp` orphan that recovery ignores.
 *    Transient failures are retried with backoff.
 *
 *  - RecordFileWriter / readRecordFile(): an append-only file of
 *    CRC32-checksummed, length-prefixed records behind a versioned
 *    magic header — the checkpoint/journal container format.  Reads
 *    are tail-tolerant: a torn or bit-flipped trailing record is
 *    reported (never silently parsed) and everything before it is
 *    still served, which is exactly the contract crash recovery needs.
 *
 * A WriteChaosHook lets the fault layer kill the process (throw) at
 * precise byte positions mid-write; the hooks flush first, so the
 * bytes on disk at the throw are exactly what a SIGKILL would have
 * left.
 */

#ifndef ADRIAS_COMMON_IO_DURABLE_FILE_HH
#define ADRIAS_COMMON_IO_DURABLE_FILE_HH

#include <cstdint>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "common/error.hh"

namespace adrias::io
{

/**
 * Chaos hook invoked at named stages of a durable write ("temp-open",
 * "payload-half", "payload-done", "pre-rename", "record-header",
 * "record-half", "record-done").  May throw to simulate a crash at
 * that exact on-disk state; buffered bytes are flushed before every
 * invocation.
 */
using WriteChaosHook =
    std::function<void(const char *stage, std::size_t bytes_so_far)>;

/** Tuning for atomicWriteFile. */
struct AtomicWriteOptions
{
    /** Attempts before giving up on a transient I/O failure. */
    std::size_t maxAttempts = 3;

    /** Sleep between attempts, doubling each retry, milliseconds. */
    std::size_t backoffMs = 10;

    /** Optional kill-point hook (tests/chaos only). */
    WriteChaosHook chaos;
};

/**
 * Atomically replace `path` with `content`.
 *
 * The content is written to `path + ".tmp"`, flushed, and renamed over
 * the target; rename is atomic on POSIX, so a reader never sees a
 * partial file.  On failure the temp file is removed (best effort) and
 * the write is retried up to `maxAttempts` times.
 *
 * @return ErrorCode::Io after all attempts fail.
 */
[[nodiscard]] Result<void>
atomicWriteFile(const std::string &path, const std::string &content,
                const AtomicWriteOptions &options = {});

/** Read a whole file. @return ErrorCode::Io when it cannot be opened. */
[[nodiscard]] Result<std::string> readFile(const std::string &path);

/** Magic header opening every record file ("ADRSREC1"). */
inline constexpr char kRecordFileMagic[] = "ADRSREC1";

/** Bytes of the magic header (excluding the NUL). */
inline constexpr std::size_t kRecordFileMagicSize = 8;

/**
 * Append-only writer of CRC-framed records.
 *
 * Layout: magic header, then per record a little-endian u32 payload
 * length, u32 CRC32 of the payload, and the payload bytes.  Every
 * append flushes, so a record is durable as soon as append() returns —
 * the write-ahead property the DecisionJournal relies on.
 */
class RecordFileWriter
{
  public:
    /**
     * Open `path` and write the magic header (truncating) or position
     * after existing content (`append` = true; the header must already
     * be present).
     */
    [[nodiscard]] Result<void> open(const std::string &path,
                                    bool append = false);

    /** Append one framed record and flush. */
    [[nodiscard]] Result<void> append(std::string_view payload);

    /** Flush and close; further appends are invalid. */
    void close();

    /** @return true while the file is open and healthy. */
    bool isOpen() const { return out.is_open(); }

    /** Install a kill-point hook (nullptr to clear). */
    void setChaosHook(WriteChaosHook hook) { chaos = std::move(hook); }

  private:
    // NOLINTNEXTLINE(raw-ofstream): this IS the DurableFile layer.
    std::ofstream out;
    std::string filePath;
    WriteChaosHook chaos;
};

/**
 * @return a fresh in-memory record-file image (just the magic header).
 *
 * Checkpoint snapshots are built in memory with appendFramedRecord()
 * and then published in one atomicWriteFile() call, so a snapshot is
 * either fully present or absent — never half-framed on disk.
 */
std::string beginRecordFileImage();

/** Append one CRC-framed record to an in-memory record-file image. */
void appendFramedRecord(std::string &image, std::string_view payload);

/** Outcome of a tolerant record-file read. */
struct RecordReadResult
{
    /** Records that passed their CRC, in file order. */
    std::vector<std::string> records;

    /**
     * True when the file ended with a torn/corrupt record that was
     * dropped (records before it are still valid and served).
     */
    bool tornTail = false;

    /** Bytes discarded as the torn tail (0 when clean). */
    std::size_t droppedBytes = 0;
};

/**
 * Read every valid record of a record file, tolerating a torn tail.
 *
 * Errors (the file is unusable, not merely torn):
 *  - Io: the file cannot be opened/read;
 *  - Truncated: shorter than the magic header (e.g. zero-length);
 *  - BadHeader: the magic bytes do not match.
 *
 * A record whose length field overruns the file, or whose CRC
 * mismatches, terminates the scan: it and everything after it are
 * reported via `tornTail`/`droppedBytes`, never returned as data.
 */
[[nodiscard]] Result<RecordReadResult>
readRecordFile(const std::string &path);

/**
 * Strict variant: any torn or corrupt tail (short record or CRC
 * mismatch) is ErrorCode::Truncated.  Checkpoint snapshots use this —
 * a snapshot is either fully intact or rejected whole.
 */
[[nodiscard]] Result<std::vector<std::string>>
readRecordFileStrict(const std::string &path);

} // namespace adrias::io

#endif // ADRIAS_COMMON_IO_DURABLE_FILE_HH
