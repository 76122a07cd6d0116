/** @file Negative-path tests for the binary model-state codec. */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/io/binary.hh"
#include "ml/scaler.hh"
#include "ml/serialize.hh"

namespace adrias::ml
{
namespace
{

std::vector<Param>
makeParams()
{
    std::vector<Param> params;
    Matrix w(2, 3);
    for (std::size_t i = 0; i < w.raw().size(); ++i)
        w.raw()[i] = 0.5 * static_cast<double>(i);
    params.emplace_back("w", w);
    params.emplace_back("b", Matrix(1, 3));
    return params;
}

std::vector<Param *>
pointersTo(std::vector<Param> &params)
{
    std::vector<Param *> ptrs;
    for (Param &p : params)
        ptrs.push_back(&p);
    return ptrs;
}

std::string
savedParamsBytes()
{
    std::vector<Param> params = makeParams();
    io::BinaryWriter out;
    saveParams(out, pointersTo(params));
    return out.take();
}

/** Decode `bytes` as a Param list shaped like `params`. */
Result<std::vector<Matrix>>
decodeParams(const std::string &bytes, std::vector<Param> &params)
{
    io::BinaryReader in(bytes);
    return loadParams(in, pointersTo(params));
}

TEST(TryLoadParams, RoundTripsHappyPath)
{
    std::vector<Param> fresh = makeParams();
    for (Param &p : fresh)
        p.value.setZero();
    const Result<std::vector<Matrix>> loaded =
        decodeParams(savedParamsBytes(), fresh);
    ASSERT_TRUE(loaded.ok());
    // Decoding leaves the destination alone; the values come back.
    EXPECT_EQ(fresh[0].value.at(1, 2), 0.0);
    ASSERT_EQ(loaded.value().size(), 2u);
    const std::vector<Param> saved = makeParams();
    EXPECT_EQ(loaded.value()[0].raw(), saved[0].value.raw());
}

TEST(TryLoadParams, BadMagicIsBadHeader)
{
    io::BinaryWriter out;
    out.writeString("not-a-checkpoint");
    std::vector<Param> params = makeParams();
    const Result<std::vector<Matrix>> loaded =
        decodeParams(out.data(), params);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.error().code, ErrorCode::BadHeader);
}

TEST(TryLoadParams, CountMismatchIsGeometry)
{
    std::vector<Param> params = makeParams();
    params.pop_back();
    const Result<std::vector<Matrix>> loaded =
        decodeParams(savedParamsBytes(), params);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.error().code, ErrorCode::Geometry);
}

TEST(TryLoadParams, ShapeMismatchIsGeometry)
{
    std::vector<Param> params;
    params.emplace_back("w", Matrix(3, 3)); // saved as 2x3
    params.emplace_back("b", Matrix(1, 3));
    const Result<std::vector<Matrix>> loaded =
        decodeParams(savedParamsBytes(), params);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.error().code, ErrorCode::Geometry);
}

TEST(TryLoadParams, TruncatedPayloadIsTruncated)
{
    const std::string bytes = savedParamsBytes();
    std::vector<Param> params = makeParams();
    const Result<std::vector<Matrix>> loaded =
        decodeParams(bytes.substr(0, bytes.size() * 2 / 3), params);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.error().code, ErrorCode::Truncated);
}

Result<StandardScaler>
decodeScaler(const io::BinaryWriter &out, std::size_t width)
{
    io::BinaryReader in(out.data());
    return loadScaler(in, width);
}

TEST(TryLoadScaler, RoundTripsHappyPath)
{
    StandardScaler scaler;
    scaler.restore({1.0, 2.0}, {0.5, 0.25});
    io::BinaryWriter out;
    saveScaler(out, scaler);

    const Result<StandardScaler> restored = decodeScaler(out, 2);
    ASSERT_TRUE(restored.ok());
    EXPECT_EQ(restored.value().mean(), scaler.mean());
    EXPECT_EQ(restored.value().stddev(), scaler.stddev());
}

TEST(TryLoadScaler, ImplausibleWidthIsTruncatedNotBadAlloc)
{
    // A corrupt width must not be trusted as an allocation size: it
    // is bounded by the bytes left before anything is allocated.
    io::BinaryWriter out;
    StandardScaler fitted;
    fitted.restore({1.0}, {1.0});
    saveScaler(out, fitted);
    std::string bytes = out.take();
    const std::size_t width_at = bytes.size() - 2 * 16;
    for (std::size_t i = 0; i < 8; ++i)
        bytes[width_at + i] = static_cast<char>(0xff);
    io::BinaryReader in(bytes);
    const Result<StandardScaler> loaded = loadScaler(in, 1);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.error().code, ErrorCode::Truncated);
}

TEST(TryLoadScaler, TruncatedStatsIsTruncated)
{
    StandardScaler scaler;
    scaler.restore({1.0, 2.0, 3.0, 4.0}, {1.0, 1.0, 1.0, 1.0});
    io::BinaryWriter out;
    saveScaler(out, scaler);
    const std::string bytes = out.take();
    io::BinaryReader in(
        std::string_view(bytes).substr(0, bytes.size() - 8));
    const Result<StandardScaler> loaded = loadScaler(in, 4);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.error().code, ErrorCode::Truncated);
}

TEST(TryLoadScaler, WidthMismatchIsGeometry)
{
    StandardScaler scaler;
    scaler.restore({1.0, 2.0}, {0.5, 0.25});
    io::BinaryWriter out;
    saveScaler(out, scaler);
    const Result<StandardScaler> loaded = decodeScaler(out, 3);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.error().code, ErrorCode::Geometry);
}

TEST(TryLoadScaler, BadMagicIsBadHeader)
{
    std::vector<Param> params = makeParams();
    io::BinaryWriter out;
    saveParams(out, pointersTo(params));
    const Result<StandardScaler> loaded = decodeScaler(out, 2);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.error().code, ErrorCode::BadHeader);
}

TEST(TryLoadStateTensors, DiagnosesHeaderShapeAndTruncation)
{
    Matrix m(2, 2);
    m.raw() = {1.0, 2.0, 3.0, 4.0};
    io::BinaryWriter out;
    saveStateTensors(out, {&m});
    const std::string bytes = out.take();
    const auto decode = [](std::string_view payload, Matrix &like) {
        io::BinaryReader in(payload);
        return loadStateTensors(in, {&like});
    };

    {
        Matrix fresh(2, 2);
        const Result<std::vector<Matrix>> loaded = decode(bytes, fresh);
        ASSERT_TRUE(loaded.ok());
        EXPECT_EQ(loaded.value().front().at(1, 1), 4.0);
    }
    {
        Matrix wrong(3, 2);
        const Result<std::vector<Matrix>> loaded = decode(bytes, wrong);
        ASSERT_FALSE(loaded.ok());
        EXPECT_EQ(loaded.error().code, ErrorCode::Geometry);
    }
    {
        Matrix fresh(2, 2);
        const Result<std::vector<Matrix>> loaded =
            decode(std::string_view(bytes).substr(0, bytes.size() - 6),
                   fresh);
        ASSERT_FALSE(loaded.ok());
        EXPECT_EQ(loaded.error().code, ErrorCode::Truncated);
    }
    {
        Matrix fresh(2, 2);
        io::BinaryWriter params;
        std::vector<Param> list = makeParams();
        saveParams(params, pointersTo(list));
        const Result<std::vector<Matrix>> loaded =
            decode(params.data(), fresh);
        ASSERT_FALSE(loaded.ok());
        EXPECT_EQ(loaded.error().code, ErrorCode::BadHeader);
    }
}

TEST(MatrixSequenceCodec, RoundTripIsBitwise)
{
    const std::vector<Matrix> sequence = {
        Matrix(1, 3, {-0.0, 1e-300, 0.1}), Matrix(2, 1, {3.0, -7.5}),
        Matrix(0, 4, {})};
    io::BinaryWriter out;
    saveMatrixSequence(out, sequence);
    io::BinaryReader in(out.data());
    const Result<std::vector<Matrix>> loaded = loadMatrixSequence(in);
    ASSERT_TRUE(loaded.ok());
    ASSERT_TRUE(in.status().ok());
    ASSERT_EQ(loaded.value().size(), sequence.size());
    for (std::size_t s = 0; s < sequence.size(); ++s) {
        const Matrix &step = loaded.value()[s];
        EXPECT_EQ(step.rows(), sequence[s].rows());
        EXPECT_EQ(step.cols(), sequence[s].cols());
        for (std::size_t i = 0; i < sequence[s].size(); ++i)
            EXPECT_EQ(std::bit_cast<std::uint64_t>(step.raw()[i]),
                      std::bit_cast<std::uint64_t>(sequence[s].raw()[i]));
    }
}

TEST(MatrixSequenceCodec, OverflowingShapeIsGeometry)
{
    // rows * cols = 2^64 wraps to 0, the stored value count: the shape
    // is tested by division, so it cannot pass.
    io::BinaryWriter out;
    out.writeU64(1);                      // steps
    out.writeU64(std::uint64_t{1} << 32); // rows
    out.writeU64(std::uint64_t{1} << 32); // cols
    out.writeF64Vector({});
    io::BinaryReader in(out.data());
    const Result<std::vector<Matrix>> loaded = loadMatrixSequence(in);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.error().code, ErrorCode::Geometry);
}

} // namespace
} // namespace adrias::ml
