#include "recovery/checkpoint.hh"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <utility>

#include "common/io/binary.hh"
#include "common/logging.hh"
#include "obs/obs.hh"

namespace adrias::recovery
{

namespace
{

/** Manifest version string opening every snapshot. */
constexpr const char *kSnapshotVersion = "adrias-checkpoint-v4";

constexpr const char *kSnapshotPrefix = "snap-";
constexpr const char *kSnapshotSuffix = ".adck";

/** Parse the tick out of "snap-<tick>.adck"; -1 when not a snapshot. */
SimTime
parseSnapshotTick(const std::string &filename)
{
    const std::string prefix(kSnapshotPrefix);
    const std::string suffix(kSnapshotSuffix);
    if (filename.size() <= prefix.size() + suffix.size() ||
        filename.compare(0, prefix.size(), prefix) != 0 ||
        filename.compare(filename.size() - suffix.size(), suffix.size(),
                         suffix) != 0)
        return -1;
    const std::string digits = filename.substr(
        prefix.size(), filename.size() - prefix.size() - suffix.size());
    SimTime tick = 0;
    for (char c : digits) {
        if (c < '0' || c > '9')
            return -1;
        tick = tick * 10 + (c - '0');
    }
    return tick;
}

/** Monotonic milliseconds for checkpoint/restore latency metrics. */
double
monotonicMs()
{
    // NOLINTNEXTLINE(wall-clock): measuring real I/O latency.
    const auto now = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(
               now.time_since_epoch())
        .count();
}

} // namespace

CheckpointManager::CheckpointManager(CheckpointConfig config_)
    : config(std::move(config_))
{
    if (config.dir.empty())
        fatal("CheckpointManager: directory must not be empty");
    if (config.intervalSec <= 0)
        fatal("CheckpointManager: interval must be positive");
    if (config.keep == 0)
        fatal("CheckpointManager: must keep at least one snapshot");
}

void
CheckpointManager::attach(io::Checkpointable &section)
{
    for (const io::Checkpointable *existing : sections)
        if (existing->checkpointTag() == section.checkpointTag())
            panic("CheckpointManager: duplicate section tag '" +
                  section.checkpointTag() + "'");
    sections.push_back(&section);
}

std::string
CheckpointManager::snapshotPath(SimTime tick) const
{
    return config.dir + "/" + kSnapshotPrefix + std::to_string(tick) +
           kSnapshotSuffix;
}

std::vector<SimTime>
CheckpointManager::snapshotTicks() const
{
    std::vector<SimTime> ticks;
    std::error_code ec;
    for (const auto &entry :
         std::filesystem::directory_iterator(config.dir, ec)) {
        const SimTime tick =
            parseSnapshotTick(entry.path().filename().string());
        if (tick >= 0)
            ticks.push_back(tick);
    }
    std::sort(ticks.begin(), ticks.end());
    return ticks;
}

SimTime
CheckpointManager::oldestKeptTick() const
{
    const std::vector<SimTime> ticks = snapshotTicks();
    return ticks.empty() ? 0 : ticks.front();
}

Result<void>
CheckpointManager::checkpointNow(SimTime now)
{
    if (sections.empty())
        panic("CheckpointManager::checkpointNow with no sections");

    const double startMs = monotonicMs();
    std::string image = io::beginRecordFileImage();

    io::BinaryWriter manifest;
    manifest.writeString(kSnapshotVersion);
    manifest.writeI64(now);
    manifest.writeU64(sections.size());
    io::appendFramedRecord(image, manifest.data());

    for (const io::Checkpointable *section : sections) {
        io::BinaryWriter payload;
        section->saveState(payload);
        io::BinaryWriter record;
        record.writeString(section->checkpointTag());
        record.writeString(payload.data());
        io::appendFramedRecord(image, record.data());
    }

    io::AtomicWriteOptions options;
    options.chaos = chaos;
    if (Result<void> written =
            atomicWriteFile(snapshotPath(now), image, options);
        !written.ok())
        return written.error();
    lastTick = now;

#if ADRIAS_OBS_ENABLED
    if (obs::enabled()) {
        obs::MetricsRegistry &reg = obs::MetricsRegistry::global();
        static obs::Counter &written_c =
            reg.counter("recovery.checkpoints_written");
        static obs::Counter &bytes_c =
            reg.counter("recovery.checkpoint_bytes");
        static obs::Histogram &write_ms_h =
            reg.histogram("recovery.checkpoint_write_ms");
        written_c.add();
        bytes_c.add(image.size());
        write_ms_h.observe(monotonicMs() - startMs, now);
    }
#endif

    pruneSnapshots();
    return {};
}

void
CheckpointManager::pruneSnapshots() const
{
    std::vector<SimTime> ticks = snapshotTicks();
    if (ticks.size() <= config.keep)
        return;
    const std::size_t excess = ticks.size() - config.keep;
    for (std::size_t i = 0; i < excess; ++i) {
        std::error_code ec;
        std::filesystem::remove(snapshotPath(ticks[i]), ec);
    }
#if ADRIAS_OBS_ENABLED
    if (obs::enabled()) {
        static obs::Counter &pruned_c =
            obs::MetricsRegistry::global().counter(
                "recovery.snapshots_pruned");
        pruned_c.add(excess);
    }
#endif
}

void
CheckpointManager::removeOrphanTempFiles() const
{
    std::error_code ec;
    for (const auto &entry :
         std::filesystem::directory_iterator(config.dir, ec)) {
        if (entry.path().extension() == ".tmp") {
            std::error_code ignored;
            std::filesystem::remove(entry.path(), ignored);
        }
    }
}

Result<void>
CheckpointManager::restoreSnapshot(const std::string &path,
                                   SimTime expectedTick,
                                   bool &stateTouched)
{
    // Phase 1 — structural validation, no state mutated.  readStrict
    // already rejects truncation, bit flips and bad magic via CRC.
    Result<std::vector<std::string>> read =
        io::readRecordFileStrict(path);
    if (!read.ok())
        return read.error();
    const std::vector<std::string> &records = read.value();

    if (records.size() != sections.size() + 1)
        return makeError(ErrorCode::Geometry,
                         "snapshot '" + path + "' has " +
                             std::to_string(records.size()) +
                             " records, expected " +
                             std::to_string(sections.size() + 1));

    io::BinaryReader manifest(records.front());
    const std::string version = manifest.readString();
    const SimTime tick = manifest.readI64();
    const std::uint64_t count = manifest.readU64();
    if (Result<void> status = manifest.status(); !status.ok())
        return status.error();
    if (version != kSnapshotVersion)
        return makeError(ErrorCode::BadHeader,
                         "snapshot '" + path +
                             "' has unknown version '" + version + "'");
    if (tick != expectedTick)
        return makeError(ErrorCode::BadNumber,
                         "snapshot '" + path + "' claims tick " +
                             std::to_string(tick) + ", filename says " +
                             std::to_string(expectedTick));
    if (count != sections.size())
        return makeError(ErrorCode::Geometry,
                         "snapshot '" + path + "' holds " +
                             std::to_string(count) +
                             " sections, expected " +
                             std::to_string(sections.size()));

    std::vector<std::string> payloads;
    payloads.reserve(sections.size());
    for (std::size_t i = 0; i < sections.size(); ++i) {
        io::BinaryReader record(records[i + 1]);
        const std::string tag = record.readString();
        std::string payload = record.readString();
        if (Result<void> status = record.status(); !status.ok())
            return status.error();
        if (tag != sections[i]->checkpointTag())
            return makeError(ErrorCode::BadToken,
                             "snapshot '" + path + "' section " +
                                 std::to_string(i) + " is '" + tag +
                                 "', expected '" +
                                 sections[i]->checkpointTag() + "'");
        payloads.push_back(std::move(payload));
    }

    // Phase 2 — restore in attach order.  A failure here leaves
    // partial state; the caller either falls back to an older snapshot
    // (which re-restores every section) or reports the error up.
    stateTouched = true;
    for (std::size_t i = 0; i < sections.size(); ++i) {
        io::BinaryReader payload(payloads[i]);
        if (Result<void> restored = sections[i]->restoreState(payload);
            !restored.ok())
            return restored.error();
    }
    return {};
}

Result<RestoreOutcome>
CheckpointManager::restoreLatest()
{
    if (sections.empty())
        panic("CheckpointManager::restoreLatest with no sections");

    const double startMs = monotonicMs();
    std::vector<SimTime> ticks = snapshotTicks();
    std::sort(ticks.begin(), ticks.end(), std::greater<>());

    RestoreOutcome outcome;
    bool anyStateTouched = false;
    for (SimTime tick : ticks) {
        const std::string path = snapshotPath(tick);
        bool stateTouched = false;
        Result<void> restored =
            restoreSnapshot(path, tick, stateTouched);
        anyStateTouched = anyStateTouched || stateTouched;
        if (restored.ok()) {
            outcome.restored = true;
            outcome.snapshotTick = tick;
            lastTick = tick;
            break;
        }
        ++outcome.rejectedSnapshots;
        logWarn("CheckpointManager: rejecting snapshot '" + path +
                "': " + restored.error().toString());
    }

#if ADRIAS_OBS_ENABLED
    if (obs::enabled()) {
        obs::MetricsRegistry &reg = obs::MetricsRegistry::global();
        static obs::Counter &rejected_c =
            reg.counter("recovery.snapshots_rejected");
        static obs::Counter &restores_c = reg.counter("recovery.restores");
        static obs::Histogram &restore_ms_h =
            reg.histogram("recovery.restore_ms");
        rejected_c.add(outcome.rejectedSnapshots);
        if (outcome.restored) {
            restores_c.add();
            restore_ms_h.observe(monotonicMs() - startMs,
                                 outcome.snapshotTick);
        }
    }
#endif

    if (!outcome.restored && anyStateTouched)
        return makeError(
            ErrorCode::Io,
            "CheckpointManager: every snapshot failed section restore "
            "after structural validation; attached state is partial "
            "and must be rebuilt");
    return outcome;
}

} // namespace adrias::recovery
