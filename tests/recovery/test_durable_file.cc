/**
 * @file
 * DurableFile layer tests: atomic replacement, the CRC-framed record
 * container, the in-memory image builder, every corruption class
 * (truncated / bit-flipped / zero-length) against both the tolerant
 * and the strict reader, and chaos-hook kill points.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "common/io/durable_file.hh"

namespace adrias::io
{
namespace
{

std::string
freshDir(const std::string &name)
{
    const std::string dir = ::testing::TempDir() + name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

std::string
contentsOf(const std::string &path)
{
    Result<std::string> read = readFile(path);
    EXPECT_TRUE(read.ok());
    return read.ok() ? read.value() : std::string();
}

/** Rewrite `path` with `bytes` verbatim (corruption helper). */
void
overwrite(const std::string &path, const std::string &bytes)
{
    ASSERT_TRUE(atomicWriteFile(path, bytes).ok());
}

TEST(AtomicWrite, ReplacesContentAtomically)
{
    const std::string dir = freshDir("adrias_io_atomic");
    const std::string path = dir + "/file.txt";

    ASSERT_TRUE(atomicWriteFile(path, "first").ok());
    EXPECT_EQ(contentsOf(path), "first");

    ASSERT_TRUE(atomicWriteFile(path, "second, longer payload").ok());
    EXPECT_EQ(contentsOf(path), "second, longer payload");

    // No temp residue after a successful publish.
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(AtomicWrite, ReadFileReportsIoForMissingPath)
{
    const Result<std::string> read =
        readFile(freshDir("adrias_io_missing") + "/nope.txt");
    ASSERT_FALSE(read.ok());
    EXPECT_EQ(read.error().code, ErrorCode::Io);
}

TEST(AtomicWrite, ChaosThrowLeavesOnlyTornTempFile)
{
    const std::string dir = freshDir("adrias_io_chaos");
    const std::string path = dir + "/file.txt";
    ASSERT_TRUE(atomicWriteFile(path, "intact").ok());

    AtomicWriteOptions chaos;
    chaos.chaos = [](const char *stage, std::size_t) {
        if (std::string(stage) == "payload-half")
            throw std::runtime_error("killed");
    };
    EXPECT_THROW((void)atomicWriteFile(path, "replacement", chaos),
                 std::runtime_error);

    // The target still holds the OLD content; the torn write is only
    // ever visible as a .tmp orphan.
    EXPECT_EQ(contentsOf(path), "intact");
    EXPECT_TRUE(std::filesystem::exists(path + ".tmp"));
}

TEST(AtomicWrite, PreRenameChaosKeepsOldContentButFullTemp)
{
    const std::string dir = freshDir("adrias_io_prerename");
    const std::string path = dir + "/file.txt";
    ASSERT_TRUE(atomicWriteFile(path, "old").ok());

    AtomicWriteOptions chaos;
    chaos.chaos = [](const char *stage, std::size_t) {
        if (std::string(stage) == "pre-rename")
            throw std::runtime_error("killed");
    };
    EXPECT_THROW((void)atomicWriteFile(path, "new", chaos),
                 std::runtime_error);
    EXPECT_EQ(contentsOf(path), "old");
    // The temp file was fully written — only the rename was lost.
    EXPECT_EQ(contentsOf(path + ".tmp"), "new");
}

TEST(RecordFile, WriteReadRoundTrip)
{
    const std::string dir = freshDir("adrias_io_records");
    const std::string path = dir + "/log.rec";

    RecordFileWriter writer;
    ASSERT_TRUE(writer.open(path).ok());
    ASSERT_TRUE(writer.append("alpha").ok());
    ASSERT_TRUE(writer.append("").ok()); // empty records are legal
    ASSERT_TRUE(writer.append(std::string(1000, 'z')).ok());
    writer.close();

    Result<RecordReadResult> read = readRecordFile(path);
    ASSERT_TRUE(read.ok());
    EXPECT_FALSE(read.value().tornTail);
    EXPECT_EQ(read.value().droppedBytes, 0u);
    ASSERT_EQ(read.value().records.size(), 3u);
    EXPECT_EQ(read.value().records[0], "alpha");
    EXPECT_EQ(read.value().records[1], "");
    EXPECT_EQ(read.value().records[2], std::string(1000, 'z'));
}

TEST(RecordFile, ReopenAppendContinuesAfterExistingRecords)
{
    const std::string dir = freshDir("adrias_io_append");
    const std::string path = dir + "/log.rec";

    RecordFileWriter writer;
    ASSERT_TRUE(writer.open(path).ok());
    ASSERT_TRUE(writer.append("one").ok());
    writer.close();

    RecordFileWriter again;
    ASSERT_TRUE(again.open(path, /*append=*/true).ok());
    ASSERT_TRUE(again.append("two").ok());
    again.close();

    Result<RecordReadResult> read = readRecordFile(path);
    ASSERT_TRUE(read.ok());
    ASSERT_EQ(read.value().records.size(), 2u);
    EXPECT_EQ(read.value().records[1], "two");
}

TEST(RecordFile, InMemoryImageMatchesWriterOutput)
{
    const std::string dir = freshDir("adrias_io_image");
    const std::string viaWriter = dir + "/writer.rec";

    RecordFileWriter writer;
    ASSERT_TRUE(writer.open(viaWriter).ok());
    ASSERT_TRUE(writer.append("section-a").ok());
    ASSERT_TRUE(writer.append("section-b").ok());
    writer.close();

    std::string image = beginRecordFileImage();
    appendFramedRecord(image, "section-a");
    appendFramedRecord(image, "section-b");

    // Byte-for-byte the same container — one format, two producers.
    EXPECT_EQ(image, contentsOf(viaWriter));

    const std::string viaImage = dir + "/image.rec";
    ASSERT_TRUE(atomicWriteFile(viaImage, image).ok());
    Result<std::vector<std::string>> strict =
        readRecordFileStrict(viaImage);
    ASSERT_TRUE(strict.ok());
    ASSERT_EQ(strict.value().size(), 2u);
    EXPECT_EQ(strict.value()[0], "section-a");
}

/** Build a two-record file and return its path + intact byte image. */
std::pair<std::string, std::string>
twoRecordFile(const std::string &dirName)
{
    const std::string path = freshDir(dirName) + "/log.rec";
    std::string image = beginRecordFileImage();
    appendFramedRecord(image, "record-zero");
    appendFramedRecord(image, "record-one");
    EXPECT_TRUE(atomicWriteFile(path, image).ok());
    return {path, image};
}

TEST(RecordFileCorruption, TruncatedTailToleratedStrictRejected)
{
    auto [path, image] = twoRecordFile("adrias_io_trunc");

    // Cut into the middle of the second record's payload.
    overwrite(path, image.substr(0, image.size() - 4));

    Result<RecordReadResult> tolerant = readRecordFile(path);
    ASSERT_TRUE(tolerant.ok());
    EXPECT_TRUE(tolerant.value().tornTail);
    EXPECT_GT(tolerant.value().droppedBytes, 0u);
    ASSERT_EQ(tolerant.value().records.size(), 1u);
    EXPECT_EQ(tolerant.value().records[0], "record-zero");

    Result<std::vector<std::string>> strict = readRecordFileStrict(path);
    ASSERT_FALSE(strict.ok());
    EXPECT_EQ(strict.error().code, ErrorCode::Truncated);
}

TEST(RecordFileCorruption, BitFlipDropsRecordAndEverythingAfter)
{
    auto [path, image] = twoRecordFile("adrias_io_flip");

    // Flip one payload byte of the FIRST record: its CRC fails, and
    // the (intact) second record after it must not be served either —
    // a mid-file flip makes frame boundaries untrustworthy.
    std::string flipped = image;
    flipped[kRecordFileMagicSize + 8] ^= 0x40;
    overwrite(path, flipped);

    Result<RecordReadResult> tolerant = readRecordFile(path);
    ASSERT_TRUE(tolerant.ok());
    EXPECT_TRUE(tolerant.value().tornTail);
    EXPECT_TRUE(tolerant.value().records.empty());

    Result<std::vector<std::string>> strict = readRecordFileStrict(path);
    ASSERT_FALSE(strict.ok());
    EXPECT_EQ(strict.error().code, ErrorCode::Truncated);
}

TEST(RecordFileCorruption, ZeroLengthFileIsTruncatedError)
{
    const std::string path =
        freshDir("adrias_io_zero") + "/log.rec";
    overwrite(path, "");

    Result<RecordReadResult> tolerant = readRecordFile(path);
    ASSERT_FALSE(tolerant.ok());
    EXPECT_EQ(tolerant.error().code, ErrorCode::Truncated);

    Result<std::vector<std::string>> strict = readRecordFileStrict(path);
    ASSERT_FALSE(strict.ok());
    EXPECT_EQ(strict.error().code, ErrorCode::Truncated);
}

TEST(RecordFileCorruption, WrongMagicIsBadHeader)
{
    auto [path, image] = twoRecordFile("adrias_io_magic");
    std::string mangled = image;
    mangled[0] = 'X';
    overwrite(path, mangled);

    Result<RecordReadResult> read = readRecordFile(path);
    ASSERT_FALSE(read.ok());
    EXPECT_EQ(read.error().code, ErrorCode::BadHeader);
}

TEST(RecordFileCorruption, LengthFieldOverrunIsTornTail)
{
    const std::string path =
        freshDir("adrias_io_overrun") + "/log.rec";
    std::string image = beginRecordFileImage();
    appendFramedRecord(image, "good");
    // A header claiming 0xffffff bytes with nothing behind it — what a
    // kill mid-header leaves when the length bytes landed but not the
    // payload.
    image += std::string("\xff\xff\xff\x00", 4);
    overwrite(path, image);

    Result<RecordReadResult> read = readRecordFile(path);
    ASSERT_TRUE(read.ok());
    EXPECT_TRUE(read.value().tornTail);
    ASSERT_EQ(read.value().records.size(), 1u);
    EXPECT_EQ(read.value().records[0], "good");
}

TEST(RecordFile, ChaosMidAppendLeavesPreviousRecordsReadable)
{
    const std::string dir = freshDir("adrias_io_midappend");
    const std::string path = dir + "/log.rec";

    RecordFileWriter writer;
    ASSERT_TRUE(writer.open(path).ok());
    ASSERT_TRUE(writer.append("durable").ok());
    writer.setChaosHook([](const char *stage, std::size_t) {
        if (std::string(stage) == "record-half")
            throw std::runtime_error("killed");
    });
    EXPECT_THROW((void)writer.append("torn-record-payload"),
                 std::runtime_error);

    // Exactly the SIGKILL picture: the first record survives, the torn
    // half-append is reported and dropped.
    Result<RecordReadResult> read = readRecordFile(path);
    ASSERT_TRUE(read.ok());
    EXPECT_TRUE(read.value().tornTail);
    ASSERT_EQ(read.value().records.size(), 1u);
    EXPECT_EQ(read.value().records[0], "durable");
}

} // namespace
} // namespace adrias::io
