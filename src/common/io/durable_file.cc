#include "common/io/durable_file.hh"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <thread> // NOLINT(raw-thread): retry backoff sleep, no parallelism

#include "common/io/crc32.hh"
#include "common/logging.hh"

namespace adrias::io
{

namespace
{

/** Little-endian u32 encode into 4 chars. */
void
putU32(std::string &out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xffu));
}

/** Little-endian u32 decode at `at` (caller checks bounds). */
std::uint32_t
getU32(const std::string &data, std::size_t at)
{
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(
                 static_cast<unsigned char>(data[at + i]))
             << (8 * i);
    return v;
}

/** One attempt of the temp-write + rename protocol. */
[[nodiscard]] Result<void>
atomicWriteOnce(const std::string &path, const std::string &content,
                const WriteChaosHook &chaos)
{
    const std::string temp = path + ".tmp";
    {
        // NOLINTNEXTLINE(raw-ofstream): this IS the DurableFile layer.
        std::ofstream out(temp, std::ios::binary | std::ios::trunc);
        if (!out)
            return makeError(ErrorCode::Io,
                             "atomicWriteFile: cannot open '" + temp +
                                 "'");
        if (chaos)
            chaos("temp-open", 0);

        // Two halves with a flush between them give the chaos hook a
        // genuine mid-payload kill point (torn temp file on disk).
        const std::size_t half = content.size() / 2;
        out.write(content.data(),
                  static_cast<std::streamsize>(half));
        out.flush();
        if (chaos)
            chaos("payload-half", half);
        out.write(content.data() + half,
                  static_cast<std::streamsize>(content.size() - half));
        out.flush();
        if (!out)
            return makeError(ErrorCode::Io,
                             "atomicWriteFile: short write to '" +
                                 temp + "'");
        if (chaos)
            chaos("payload-done", content.size());
    }
    if (chaos)
        chaos("pre-rename", content.size());
    if (std::rename(temp.c_str(), path.c_str()) != 0)
        return makeError(ErrorCode::Io,
                         "atomicWriteFile: rename '" + temp +
                             "' -> '" + path + "' failed");
    return {};
}

} // namespace

Result<void>
atomicWriteFile(const std::string &path, const std::string &content,
                const AtomicWriteOptions &options)
{
    const std::size_t attempts =
        options.maxAttempts > 0 ? options.maxAttempts : 1;
    std::size_t backoff_ms = options.backoffMs;
    Result<void> last = makeError(ErrorCode::Io, "atomicWriteFile");
    for (std::size_t attempt = 0; attempt < attempts; ++attempt) {
        if (attempt > 0 && backoff_ms > 0) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(backoff_ms));
            backoff_ms *= 2;
        }
        last = atomicWriteOnce(path, content, options.chaos);
        if (last.ok())
            return last;
        // A chaos hook that throws propagates (that's the simulated
        // crash); only genuine I/O errors reach this retry path.
        std::error_code ignored;
        std::filesystem::remove(path + ".tmp", ignored);
    }
    return last;
}

Result<std::string>
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return makeError(ErrorCode::Io,
                         "readFile: cannot open '" + path + "'");
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    if (in.bad())
        return makeError(ErrorCode::Io,
                         "readFile: read error on '" + path + "'");
    return content;
}

Result<void>
RecordFileWriter::open(const std::string &path, bool append)
{
    if (out.is_open())
        panic("RecordFileWriter::open: already open");
    filePath = path;
    const auto mode = std::ios::binary |
                      (append ? std::ios::app : std::ios::trunc);
    // NOLINTNEXTLINE(raw-ofstream): this IS the DurableFile layer.
    out.open(path, mode);
    if (!out)
        return makeError(ErrorCode::Io,
                         "RecordFileWriter: cannot open '" + path +
                             "'");
    if (!append) {
        out.write(kRecordFileMagic,
                  static_cast<std::streamsize>(kRecordFileMagicSize));
        out.flush();
        if (!out)
            return makeError(ErrorCode::Io,
                             "RecordFileWriter: cannot write header "
                             "to '" +
                                 path + "'");
    }
    return {};
}

Result<void>
RecordFileWriter::append(std::string_view payload)
{
    if (!out.is_open())
        panic("RecordFileWriter::append before open()");
    if (payload.size() > 0xffffffffu)
        return makeError(ErrorCode::Geometry,
                         "RecordFileWriter: record exceeds u32 length");

    std::string frame;
    frame.reserve(8 + payload.size());
    putU32(frame, static_cast<std::uint32_t>(payload.size()));
    putU32(frame, crc32(payload));

    // Header first, flushed, so a kill between header and payload
    // leaves a detectably-torn record (length promises bytes that are
    // not there).
    out.write(frame.data(), static_cast<std::streamsize>(frame.size()));
    out.flush();
    if (chaos)
        chaos("record-header", frame.size());

    const std::size_t half = payload.size() / 2;
    out.write(payload.data(), static_cast<std::streamsize>(half));
    out.flush();
    if (chaos)
        chaos("record-half", frame.size() + half);

    out.write(payload.data() + half,
              static_cast<std::streamsize>(payload.size() - half));
    out.flush();
    if (!out)
        return makeError(ErrorCode::Io,
                         "RecordFileWriter: short append to '" +
                             filePath + "'");
    if (chaos)
        chaos("record-done", frame.size() + payload.size());
    return {};
}

void
RecordFileWriter::close()
{
    if (out.is_open()) {
        out.flush();
        out.close();
    }
}

std::string
beginRecordFileImage()
{
    return std::string(kRecordFileMagic, kRecordFileMagicSize);
}

void
appendFramedRecord(std::string &image, std::string_view payload)
{
    if (payload.size() > 0xffffffffu)
        panic("appendFramedRecord: record exceeds u32 length");
    putU32(image, static_cast<std::uint32_t>(payload.size()));
    putU32(image, crc32(payload));
    image.append(payload.data(), payload.size());
}

Result<RecordReadResult>
readRecordFile(const std::string &path)
{
    Result<std::string> content = readFile(path);
    if (!content.ok())
        return content.error();
    const std::string &data = content.value();

    if (data.size() < kRecordFileMagicSize)
        return makeError(ErrorCode::Truncated,
                         "record file '" + path +
                             "' is shorter than its header (" +
                             std::to_string(data.size()) + " bytes)");
    if (data.compare(0, kRecordFileMagicSize, kRecordFileMagic, 0,
                     kRecordFileMagicSize) != 0)
        return makeError(ErrorCode::BadHeader,
                         "record file '" + path +
                             "' has an unrecognized magic header");

    RecordReadResult result;
    std::size_t cursor = kRecordFileMagicSize;
    while (cursor < data.size()) {
        if (data.size() - cursor < 8) {
            result.tornTail = true; // torn frame header
            break;
        }
        const std::uint32_t length = getU32(data, cursor);
        const std::uint32_t expected_crc = getU32(data, cursor + 4);
        if (length > data.size() - cursor - 8) {
            result.tornTail = true; // length overruns the file
            break;
        }
        const std::string_view payload(data.data() + cursor + 8, length);
        if (crc32(payload) != expected_crc) {
            result.tornTail = true; // bit rot or torn payload
            break;
        }
        result.records.emplace_back(payload);
        cursor += 8 + length;
    }
    if (result.tornTail)
        result.droppedBytes = data.size() - cursor;
    return result;
}

Result<std::vector<std::string>>
readRecordFileStrict(const std::string &path)
{
    Result<RecordReadResult> tolerant = readRecordFile(path);
    if (!tolerant.ok())
        return tolerant.error();
    if (tolerant.value().tornTail)
        return makeError(ErrorCode::Truncated,
                         "record file '" + path +
                             "' has a torn/corrupt tail (" +
                             std::to_string(
                                 tolerant.value().droppedBytes) +
                             " bytes dropped)");
    return std::move(tolerant.value().records);
}

} // namespace adrias::io
