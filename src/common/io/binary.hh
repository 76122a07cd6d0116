/**
 * @file
 * Exact binary (de)serialization for checkpoint payloads.
 *
 * Checkpoint/restore must be *bitwise* faithful: a restored run has to
 * produce byte-identical output to an uninterrupted one.  Text formats
 * round floating-point values, so snapshots use this little-endian
 * binary encoding instead; doubles travel as their raw 64-bit pattern
 * (std::bit_cast), which restores NaN payloads and signed zeros
 * exactly.
 *
 * BinaryWriter appends to an in-memory buffer (the DurableFile layer
 * frames + checksums the finished payload); BinaryReader consumes a
 * payload that already passed its CRC check, so decode failures signal
 * either version skew or a serialization bug.  The reader is
 * sticky-failing: the first malformed read latches an error, every
 * subsequent read returns zeros, and the caller checks `status()` once
 * at the end — restore code stays linear instead of branching on every
 * field.
 */

#ifndef ADRIAS_COMMON_IO_BINARY_HH
#define ADRIAS_COMMON_IO_BINARY_HH

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hh"

namespace adrias::io
{

/** Append-only little-endian encoder over a growable buffer. */
class BinaryWriter
{
  public:
    void
    writeU8(std::uint8_t v)
    {
        buffer.push_back(static_cast<char>(v));
    }

    void
    writeU32(std::uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            buffer.push_back(static_cast<char>((v >> (8 * i)) & 0xffu));
    }

    void
    writeU64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            buffer.push_back(static_cast<char>((v >> (8 * i)) & 0xffu));
    }

    void
    writeI64(std::int64_t v)
    {
        writeU64(static_cast<std::uint64_t>(v));
    }

    void
    writeBool(bool v)
    {
        writeU8(v ? 1 : 0);
    }

    /** Exact bit pattern: NaNs and -0.0 round-trip unchanged. */
    void
    writeF64(double v)
    {
        writeU64(std::bit_cast<std::uint64_t>(v));
    }

    void
    writeString(std::string_view s)
    {
        writeU64(s.size());
        buffer.append(s.data(), s.size());
    }

    void
    writeF64Vector(const std::vector<double> &values)
    {
        writeU64(values.size());
        for (double v : values)
            writeF64(v);
    }

    void
    writeI32Vector(const std::vector<int> &values)
    {
        writeU64(values.size());
        for (int v : values)
            writeU32(static_cast<std::uint32_t>(v));
    }

    /** @return the encoded payload so far. */
    const std::string &data() const { return buffer; }

    /** Move the payload out (writer becomes empty). */
    std::string
    take()
    {
        std::string out = std::move(buffer);
        buffer.clear();
        return out;
    }

  private:
    std::string buffer;
};

/** Sticky-failing little-endian decoder over a CRC-verified payload. */
class BinaryReader
{
  public:
    explicit BinaryReader(std::string_view payload) : data(payload) {}

    std::uint8_t
    readU8()
    {
        if (!require(1))
            return 0;
        return static_cast<std::uint8_t>(data[cursor++]);
    }

    std::uint32_t
    readU32()
    {
        if (!require(4))
            return 0;
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(
                     static_cast<unsigned char>(data[cursor + i]))
                 << (8 * i);
        cursor += 4;
        return v;
    }

    std::uint64_t
    readU64()
    {
        if (!require(8))
            return 0;
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(
                     static_cast<unsigned char>(data[cursor + i]))
                 << (8 * i);
        cursor += 8;
        return v;
    }

    std::int64_t readI64() { return static_cast<std::int64_t>(readU64()); }

    bool readBool() { return readU8() != 0; }

    double readF64() { return std::bit_cast<double>(readU64()); }

    std::string
    readString()
    {
        const std::uint64_t size = readU64();
        if (!require(size))
            return {};
        std::string out(data.substr(cursor, size));
        cursor += size;
        return out;
    }

    /**
     * Read a format tag written with writeString(): Truncated when the
     * payload ends inside it, BadHeader when it is not `tag`.
     */
    [[nodiscard]] Result<void>
    expectTag(std::string_view tag)
    {
        const std::string found = readString();
        if (!ok())
            return makeError(ErrorCode::Truncated,
                             "payload ends inside its " + std::string(tag) +
                                 " tag");
        if (found != tag)
            return makeError(ErrorCode::BadHeader,
                             "payload is not " + std::string(tag));
        return {};
    }

    std::vector<double>
    readF64Vector()
    {
        const std::uint64_t size = readU64();
        // A corrupt length must not trigger a huge allocation: every
        // element needs 8 payload bytes, so bound by what remains
        // (divide, don't multiply — size * 8 could wrap).
        if (size > remaining() / 8) {
            failed = true;
            return {};
        }
        std::vector<double> values;
        values.reserve(size);
        for (std::uint64_t i = 0; i < size; ++i)
            values.push_back(readF64());
        return values;
    }

    std::vector<int>
    readI32Vector()
    {
        const std::uint64_t size = readU64();
        if (size > remaining() / 4) {
            failed = true;
            return {};
        }
        std::vector<int> values;
        values.reserve(size);
        for (std::uint64_t i = 0; i < size; ++i)
            values.push_back(static_cast<int>(readU32()));
        return values;
    }

    /** Bytes not yet consumed. */
    std::size_t remaining() const { return data.size() - cursor; }

    /** @return true while no read has failed. */
    bool ok() const { return !failed; }

    /**
     * Final verdict: success only when every read satisfied its bounds
     * AND the payload was consumed exactly (trailing bytes mean the
     * producer wrote a newer, longer layout).
     */
    [[nodiscard]] Result<void>
    status() const
    {
        if (failed)
            return makeError(ErrorCode::Truncated,
                             "binary payload ended before the declared "
                             "fields");
        if (remaining() != 0)
            return makeError(ErrorCode::TrailingData,
                             "binary payload has " +
                                 std::to_string(remaining()) +
                                 " unconsumed bytes");
        return {};
    }

  private:
    std::string_view data;
    std::size_t cursor = 0;
    bool failed = false;

    bool
    require(std::uint64_t bytes)
    {
        if (failed)
            return false;
        if (bytes > data.size() - cursor) {
            failed = true;
            return false;
        }
        return true;
    }
};

} // namespace adrias::io

#endif // ADRIAS_COMMON_IO_BINARY_HH
