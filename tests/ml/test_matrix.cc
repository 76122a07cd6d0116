/** @file Unit tests for ml/matrix. */

#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "ml/matrix.hh"
#include "gradient_check.hh"

namespace adrias::ml
{
namespace
{

/** Uniform values in [-3, 3) with ~10% exact zeros, so the GEMM
 *  kernels' exact-zero skip is exercised. */
Matrix
randomMatrix(Rng &rng, std::size_t rows, std::size_t cols)
{
    Matrix m(rows, cols);
    for (double &value : m.raw())
        value = rng.bernoulli(0.1) ? 0.0 : rng.uniform(-3.0, 3.0);
    return m;
}

/**
 * Textbook a * b: each element sums lhs*rhs from 0.0 in increasing k,
 * skipping exact-zero lhs — the per-element op sequence the kernels
 * promise, so comparisons against it are bitwise.
 */
Matrix
naiveMatmul(const Matrix &a, const Matrix &b)
{
    Matrix out(a.rows(), b.cols());
    for (std::size_t i = 0; i < a.rows(); ++i)
        for (std::size_t j = 0; j < b.cols(); ++j) {
            double acc = 0.0;
            for (std::size_t k = 0; k < a.cols(); ++k)
                // NOLINTNEXTLINE(float-equal)
                if (a.at(i, k) != 0.0)
                    acc += a.at(i, k) * b.at(k, j);
            out.at(i, j) = acc;
        }
    return out;
}

/** Textbook a * b^T: a plain dot product from +0.0 in increasing k,
 *  with no zero skip. */
Matrix
naiveMatmulTransposed(const Matrix &a, const Matrix &b)
{
    Matrix out(a.rows(), b.rows());
    for (std::size_t i = 0; i < a.rows(); ++i)
        for (std::size_t j = 0; j < b.rows(); ++j) {
            double acc = 0.0;
            for (std::size_t k = 0; k < a.cols(); ++k)
                acc += a.at(i, k) * b.at(j, k);
            out.at(i, j) = acc;
        }
    return out;
}

/** Column sums from 0.0 in increasing row order. */
Matrix
naiveSumRows(const Matrix &a)
{
    Matrix out(1, a.cols());
    for (std::size_t c = 0; c < a.cols(); ++c)
        for (std::size_t r = 0; r < a.rows(); ++r)
            out.at(0, c) += a.at(r, c);
    return out;
}

/** Bitwise, not approximate: the contract is exact equality, so NaN
 *  payloads and the sign of zero count too. */
void
expectIdentical(const Matrix &expected, const Matrix &actual,
                const char *op)
{
    ASSERT_EQ(expected.rows(), actual.rows()) << op;
    ASSERT_EQ(expected.cols(), actual.cols()) << op;
    for (std::size_t i = 0; i < expected.size(); ++i)
        ASSERT_EQ(std::bit_cast<std::uint64_t>(expected.raw()[i]),
                  std::bit_cast<std::uint64_t>(actual.raw()[i]))
            << op << " element " << i << ": expected "
            << expected.raw()[i] << ", got " << actual.raw()[i];
}

TEST(Matrix, DefaultIsEmpty)
{
    Matrix m;
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(m.rows(), 0u);
    EXPECT_EQ(m.cols(), 0u);
}

TEST(Matrix, ConstructionZeroFills)
{
    Matrix m(2, 3);
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_EQ(m.cols(), 3u);
    for (std::size_t r = 0; r < 2; ++r)
        for (std::size_t c = 0; c < 3; ++c)
            EXPECT_EQ(m.at(r, c), 0.0);
}

TEST(Matrix, InitializerShapeMismatchPanics)
{
    EXPECT_THROW(Matrix(2, 2, {1.0, 2.0, 3.0}), std::logic_error);
    // 2^32 * 2^32 wraps to 0 in 64 bits: the shape must not pass for
    // an empty value vector.
    constexpr std::size_t kSide = std::size_t{1} << 32;
    EXPECT_THROW(Matrix(kSide, kSide, {}), std::logic_error);
    EXPECT_NO_THROW(Matrix(kSide, 0, {}));
}

TEST(Matrix, AtBoundsCheckedUnderInvariants)
{
    // at() bounds checks live under ADRIAS_INVARIANT: active in
    // Debug/RelWithDebInfo (where the default handler panics), compiled
    // out entirely in Release.
    if (!invariant::kEnabled)
        GTEST_SKIP() << "invariant checks compiled out in this build";
    Matrix m(2, 2);
    EXPECT_THROW(m.at(2, 0), std::logic_error);
    EXPECT_THROW(m.at(0, 2), std::logic_error);
    const Matrix &cm = m;
    EXPECT_THROW(cm.at(2, 0), std::logic_error);
    EXPECT_THROW(cm.at(0, 2), std::logic_error);
}

TEST(Matrix, MatmulKnownProduct)
{
    Matrix a(2, 3, {1, 2, 3, 4, 5, 6});
    Matrix b(3, 2, {7, 8, 9, 10, 11, 12});
    Matrix c;
    a.matmulInto(b, c);
    ASSERT_EQ(c.rows(), 2u);
    ASSERT_EQ(c.cols(), 2u);
    EXPECT_DOUBLE_EQ(c.at(0, 0), 58.0);
    EXPECT_DOUBLE_EQ(c.at(0, 1), 64.0);
    EXPECT_DOUBLE_EQ(c.at(1, 0), 139.0);
    EXPECT_DOUBLE_EQ(c.at(1, 1), 154.0);
}

TEST(Matrix, MatmulDimensionMismatchPanics)
{
    Matrix a(2, 3);
    Matrix b(2, 3);
    Matrix out;
    EXPECT_THROW(a.matmulInto(b, out), std::logic_error);
}

TEST(Matrix, TransposedMatmulMatchesExplicit)
{
    Matrix a(3, 2, {1, 2, 3, 4, 5, 6});
    Matrix b(3, 4, {1, 0, 2, 1, 0, 1, 1, 2, 3, 1, 0, 1});
    Matrix fused;
    Matrix explicit_;
    a.transposedMatmulInto(b, fused);
    a.transposed().matmulInto(b, explicit_);
    ASSERT_EQ(fused.rows(), explicit_.rows());
    ASSERT_EQ(fused.cols(), explicit_.cols());
    for (std::size_t r = 0; r < fused.rows(); ++r)
        for (std::size_t c = 0; c < fused.cols(); ++c)
            EXPECT_DOUBLE_EQ(fused.at(r, c), explicit_.at(r, c));
}

TEST(Matrix, MatmulTransposedMatchesExplicit)
{
    Matrix a(2, 3, {1, 2, 3, 4, 5, 6});
    Matrix b(4, 3, {1, 0, 2, 1, 0, 1, 1, 2, 3, 1, 0, 1});
    const Matrix fused = a.matmulTransposed(b);
    Matrix explicit_;
    a.matmulInto(b.transposed(), explicit_);
    for (std::size_t r = 0; r < fused.rows(); ++r)
        for (std::size_t c = 0; c < fused.cols(); ++c)
            EXPECT_DOUBLE_EQ(fused.at(r, c), explicit_.at(r, c));
}

TEST(Matrix, TransposeInvolution)
{
    Matrix a(2, 3, {1, 2, 3, 4, 5, 6});
    const Matrix back = a.transposed().transposed();
    for (std::size_t r = 0; r < 2; ++r)
        for (std::size_t c = 0; c < 3; ++c)
            EXPECT_DOUBLE_EQ(back.at(r, c), a.at(r, c));
}

TEST(Matrix, ElementwiseOps)
{
    Matrix a(1, 3, {1, 2, 3});
    Matrix b(1, 3, {4, 5, 6});
    const Matrix sum = a + b;
    const Matrix diff = b - a;
    const Matrix prod = a.hadamard(b);
    const Matrix scaled = a * 2.0;
    EXPECT_DOUBLE_EQ(sum.at(0, 2), 9.0);
    EXPECT_DOUBLE_EQ(diff.at(0, 0), 3.0);
    EXPECT_DOUBLE_EQ(prod.at(0, 1), 10.0);
    EXPECT_DOUBLE_EQ(scaled.at(0, 2), 6.0);
}

TEST(Matrix, ShapeMismatchPanics)
{
    Matrix a(1, 3);
    Matrix b(1, 2);
    EXPECT_THROW(a + b, std::logic_error);
    EXPECT_THROW(a - b, std::logic_error);
    EXPECT_THROW(a.hadamard(b), std::logic_error);
    EXPECT_THROW(a += b, std::logic_error);
}

TEST(Matrix, AddRowBroadcast)
{
    Matrix a(2, 2, {1, 2, 3, 4});
    Matrix bias(1, 2, {10, 20});
    a.addRowBroadcastInPlace(bias);
    EXPECT_DOUBLE_EQ(a.at(0, 0), 11.0);
    EXPECT_DOUBLE_EQ(a.at(1, 1), 24.0);
    Matrix bad(1, 3);
    EXPECT_THROW(a.addRowBroadcastInPlace(bad), std::logic_error);
}

TEST(Matrix, SumRows)
{
    Matrix a(2, 3, {1, 2, 3, 4, 5, 6});
    Matrix s(1, 3);
    a.sumRowsAddTo(s);
    EXPECT_DOUBLE_EQ(s.at(0, 0), 5.0);
    EXPECT_DOUBLE_EQ(s.at(0, 1), 7.0);
    EXPECT_DOUBLE_EQ(s.at(0, 2), 9.0);
}

TEST(Matrix, HconcatAndColRange)
{
    Matrix a(2, 2, {1, 2, 3, 4});
    Matrix b(2, 1, {9, 8});
    const Matrix cat = a.hconcat(b);
    ASSERT_EQ(cat.cols(), 3u);
    EXPECT_DOUBLE_EQ(cat.at(0, 2), 9.0);
    EXPECT_DOUBLE_EQ(cat.at(1, 2), 8.0);

    Matrix mid;
    cat.colRangeInto(1, 3, mid);
    ASSERT_EQ(mid.cols(), 2u);
    EXPECT_DOUBLE_EQ(mid.at(0, 0), 2.0);
    EXPECT_DOUBLE_EQ(mid.at(1, 1), 8.0);

    EXPECT_THROW(cat.colRangeInto(2, 1, mid), std::logic_error);
    EXPECT_THROW(cat.colRangeInto(0, 4, mid), std::logic_error);
}

TEST(Matrix, RowExtraction)
{
    Matrix a(2, 3, {1, 2, 3, 4, 5, 6});
    const Matrix r = a.row(1);
    ASSERT_EQ(r.rows(), 1u);
    EXPECT_DOUBLE_EQ(r.at(0, 0), 4.0);
    EXPECT_THROW(a.row(2), std::logic_error);
}

TEST(Matrix, NormAndMaxAbs)
{
    Matrix a(1, 2, {3, -4});
    EXPECT_DOUBLE_EQ(a.norm(), 5.0);
}

TEST(Matrix, SetZero)
{
    Matrix a = Matrix::constant(2, 2, 7.0);
    a.setZero();
    EXPECT_DOUBLE_EQ(testutil::maxAbs(a), 0.0);
}

TEST(Matrix, IntoOverloadsMatchAllocatingBitwise)
{
    Matrix a(2, 3, {1, -2, 3, 0, 5, -6});
    Matrix b(3, 4, {1, 0, 2, 1, 0, 1, 1, 2, 3, 1, 0, 1});
    Matrix at(3, 2, {1, 4, -2, 5, 3, 0});
    Matrix bt(4, 3, {1, 0, 2, 1, 0, 1, 1, 2, 3, 1, 0, 1});

    // One destination reused across products, as the workspaces are.
    Matrix out;
    a.matmulInto(b, out);
    EXPECT_EQ(out.raw(), naiveMatmul(a, b).raw());

    at.transposedMatmulInto(b, out);
    EXPECT_EQ(out.raw(), naiveMatmul(at.transposed(), b).raw());

    a.matmulTransposedInto(bt, out);
    EXPECT_EQ(out.raw(), a.matmulTransposed(bt).raw());

    bt.transposeInto(out);
    EXPECT_EQ(out.raw(), bt.transposed().raw());
}

TEST(Matrix, IntoOverloadsReshapeTheDestination)
{
    // A destination from a previous, differently-shaped product must be
    // fully reset — no stale elements may survive.
    Matrix big(4, 4, std::vector<double>(16, 7.0));
    Matrix a(1, 2, {1, 2});
    Matrix b(2, 1, {3, 4});
    a.matmulInto(b, big);
    ASSERT_EQ(big.rows(), 1u);
    ASSERT_EQ(big.cols(), 1u);
    EXPECT_DOUBLE_EQ(big.at(0, 0), 11.0);
}

TEST(Matrix, IntoOverloadsRejectAliasing)
{
    Matrix a(2, 2, {1, 2, 3, 4});
    Matrix b(2, 2, {5, 6, 7, 8});
    EXPECT_THROW(a.matmulInto(b, a), std::logic_error);
    EXPECT_THROW(a.matmulInto(b, b), std::logic_error);
    EXPECT_THROW(a.transposedMatmulInto(b, a), std::logic_error);
    EXPECT_THROW(a.matmulTransposedInto(b, b), std::logic_error);
    EXPECT_THROW(a.colRangeInto(0, 1, a), std::logic_error);
}

TEST(Matrix, SumRowsAddToAccumulates)
{
    Matrix a(2, 3, {1, 2, 3, 4, 5, 6});
    Matrix dst(1, 3, {10, 20, 30});
    const Matrix expected = dst + naiveSumRows(a);
    a.sumRowsAddTo(dst);
    EXPECT_EQ(dst.raw(), expected.raw());

    Matrix wrong(2, 3);
    EXPECT_THROW(a.sumRowsAddTo(wrong), std::logic_error);
}

TEST(Matrix, ColRangeIntoMatchesColRange)
{
    Matrix a(2, 4, {1, 2, 3, 4, 5, 6, 7, 8});
    Matrix dst(5, 5, std::vector<double>(25, 9.0));
    a.colRangeInto(1, 3, dst);
    EXPECT_EQ(dst.rows(), 2u);
    EXPECT_EQ(dst.raw(), (std::vector<double>{2, 3, 6, 7}));
    EXPECT_THROW(a.colRangeInto(3, 1, dst), std::logic_error);
    EXPECT_THROW(a.colRangeInto(0, 5, dst), std::logic_error);
}

TEST(Matrix, AddRowBroadcastInPlaceMatches)
{
    Matrix a(2, 2, {1, 2, 3, 4});
    Matrix bias(1, 2, {10, 20});
    const Matrix expected(2, 2, {11, 22, 13, 24});
    a.addRowBroadcastInPlace(bias);
    EXPECT_EQ(a.raw(), expected.raw());
    Matrix bad(1, 3);
    EXPECT_THROW(a.addRowBroadcastInPlace(bad), std::logic_error);
}

TEST(Matrix, ResizeZeroFillsAndReusesStorage)
{
    Matrix m(4, 4, std::vector<double>(16, 3.0));
    m.resize(2, 3);
    ASSERT_EQ(m.rows(), 2u);
    ASSERT_EQ(m.cols(), 3u);
    EXPECT_DOUBLE_EQ(testutil::maxAbs(m), 0.0);

    // resizeForOverwrite keeps surviving elements (linear order).
    Matrix k(1, 4, {1, 2, 3, 4});
    k.resizeForOverwrite(2, 2);
    EXPECT_DOUBLE_EQ(k.at(0, 0), 1.0);
    EXPECT_DOUBLE_EQ(k.at(1, 1), 4.0);
}

TEST(Matrix, GemmFamilyMatchesNaiveLoopsBitwise)
{
    struct Shape
    {
        std::size_t m, k, n;
    };
    // Square, tall, wide, ragged (k not a multiple of the 4-way
    // unroll), single row/col, and empty extents.
    const Shape shapes[] = {
        {8, 8, 8},  {17, 5, 23}, {1, 64, 1}, {64, 1, 3}, {3, 1, 64},
        {1, 1, 1},  {31, 33, 2}, {2, 33, 31},
        {0, 5, 7},  {5, 0, 7},   {5, 7, 0},
    };
    Rng rng(0xAD51A5);
    Matrix out;
    for (const Shape &shape : shapes) {
        const Matrix a = randomMatrix(rng, shape.m, shape.k);
        const Matrix b = randomMatrix(rng, shape.k, shape.n);
        const Matrix at = randomMatrix(rng, shape.k, shape.m);
        const Matrix bt = randomMatrix(rng, shape.n, shape.k);
        const Matrix a_t = a.transposed();
        ASSERT_EQ(a_t.rows(), shape.k);
        ASSERT_EQ(a_t.cols(), shape.m);
        for (std::size_t r = 0; r < shape.m; ++r)
            for (std::size_t c = 0; c < shape.k; ++c)
                ASSERT_EQ(a_t.at(c, r), a.at(r, c));

        a.matmulInto(b, out);
        expectIdentical(naiveMatmul(a, b), out, "matmulInto");
        at.transposedMatmulInto(b, out);
        expectIdentical(naiveMatmul(at.transposed(), b), out,
                        "transposedMatmulInto");
        expectIdentical(naiveMatmulTransposed(a, bt),
                        a.matmulTransposed(bt), "matmulTransposed");
    }
}

TEST(Matrix, ElementwiseKernelsMatchNaiveLoopsBitwise)
{
    const std::pair<std::size_t, std::size_t> shapes[] = {
        {1, 1}, {1, 257}, {257, 1}, {13, 37}, {64, 64}, {0, 5}, {5, 0},
    };
    Rng rng(0xBEEF01);
    for (const auto &[rows, cols] : shapes) {
        const Matrix a = randomMatrix(rng, rows, cols);
        const Matrix b = randomMatrix(rng, rows, cols);
        const Matrix bias = randomMatrix(rng, 1, cols);

        Matrix add(rows, cols), sub(rows, cols), had(rows, cols),
            scale(rows, cols), broadcast(rows, cols);
        for (std::size_t r = 0; r < rows; ++r)
            for (std::size_t c = 0; c < cols; ++c) {
                add.at(r, c) = a.at(r, c) + b.at(r, c);
                sub.at(r, c) = a.at(r, c) - b.at(r, c);
                had.at(r, c) = a.at(r, c) * b.at(r, c);
                scale.at(r, c) = a.at(r, c) * 1.7;
                broadcast.at(r, c) = a.at(r, c) + bias.at(0, c);
            }
        expectIdentical(add, a + b, "operator+");
        expectIdentical(sub, a - b, "operator-");
        expectIdentical(had, a.hadamard(b), "hadamard");
        Matrix acc = a;
        acc += b;
        expectIdentical(add, acc, "operator+=");
        Matrix scaled = a;
        scaled *= 1.7;
        expectIdentical(scale, scaled, "operator*=");
        Matrix broadcast_in_place = a;
        broadcast_in_place.addRowBroadcastInPlace(bias);
        expectIdentical(broadcast, broadcast_in_place,
                        "addRowBroadcastInPlace");
        Matrix sums(1, cols);
        a.sumRowsAddTo(sums);
        expectIdentical(naiveSumRows(a), sums, "sumRowsAddTo");
    }
}

TEST(Matrix, RandomizedShapesSweep)
{
    // Broad fuzz across shapes; every repetition compares the scalar
    // kernels against the textbook loops.
    Rng rng(0xF00D42);
    Matrix out;
    for (int repetition = 0; repetition < 25; ++repetition) {
        const auto m = static_cast<std::size_t>(rng.uniformInt(1, 40));
        const auto k = static_cast<std::size_t>(rng.uniformInt(1, 40));
        const auto n = static_cast<std::size_t>(rng.uniformInt(1, 40));
        const Matrix a = randomMatrix(rng, m, k);
        const Matrix b = randomMatrix(rng, k, n);
        const Matrix at = randomMatrix(rng, k, m);
        const Matrix bt = randomMatrix(rng, n, k);
        a.matmulInto(b, out);
        expectIdentical(naiveMatmul(a, b), out, "matmulInto fuzz");
        at.transposedMatmulInto(b, out);
        expectIdentical(naiveMatmul(at.transposed(), b), out,
                        "transposedMatmulInto fuzz");
        expectIdentical(naiveMatmulTransposed(a, bt),
                        a.matmulTransposed(bt), "matmulTransposed fuzz");
        Matrix sums(1, n);
        b.sumRowsAddTo(sums);
        expectIdentical(naiveSumRows(b), sums, "sumRowsAddTo fuzz");
    }
}

TEST(Matrix, GemmFamilySpecialValuesMatchNaiveLoopsBitwise)
{
    // ±0.0, ±inf and NaN at every k of a group of four and of the
    // scalar k remainder, meeting every special on the other operand,
    // with inner sizes and widths ≡ 0, 1, 2, 3 (mod 4).  A zero lhs
    // facing an inf or NaN rhs is where the exact-zero skip
    // (matmulInto, transposedMatmulInto) and the no-skip dot product
    // (matmulTransposed) differ, so each kernel must match its own
    // textbook loop bit for bit.
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double specials[] = {0.0, -0.0, inf, -inf, nan};
    Rng rng(0x5BEC1A);
    constexpr std::size_t kRows = 3;
    Matrix out;
    for (std::size_t inner : {4, 5, 6, 7, 9}) {
        for (std::size_t width : {4, 5, 6, 7}) {
            for (std::size_t pos = 0; pos < inner; ++pos) {
                for (double lhs_special : specials) {
                    for (double rhs_special : specials) {
                        Matrix a = randomMatrix(rng, kRows, inner);
                        Matrix b = randomMatrix(rng, inner, width);
                        Matrix at = randomMatrix(rng, inner, kRows);
                        Matrix bt = randomMatrix(rng, width, inner);
                        // Every lhs row carries the special at k = pos;
                        // the rhs carries one at k = pos in column
                        // pos % width.
                        for (std::size_t r = 0; r < kRows; ++r) {
                            a.at(r, pos) = lhs_special;
                            at.at(pos, r) = lhs_special;
                        }
                        b.at(pos, pos % width) = rhs_special;
                        bt.at(pos % width, pos) = rhs_special;
                        a.matmulInto(b, out);
                        expectIdentical(naiveMatmul(a, b), out,
                                        "matmulInto specials");
                        at.transposedMatmulInto(b, out);
                        expectIdentical(naiveMatmul(at.transposed(), b),
                                        out,
                                        "transposedMatmulInto specials");
                        expectIdentical(naiveMatmulTransposed(a, bt),
                                        a.matmulTransposed(bt),
                                        "matmulTransposed specials");
                    }
                }
            }
        }
    }
}

TEST(Matrix, MatmulTransposedSpecialsAtLstmAndHeadWidths)
{
    // dz*W^T at the output widths its callers run: 1 and 3 in the
    // heads' Dense layers, 7 (the counter count) and 24 (the hidden
    // width) in the LSTM input gradients, with inner 96 = 4*24 among
    // the inner sizes.  Both spellings, matmulTransposed and the
    // LSTM's matmulNoSkipInto over a kept transpose, must match the
    // textbook no-skip dot product bit for bit with ±0.0, ±inf and NaN
    // at every k.  The transpose and the product reuse their
    // destinations, as the LSTM's workspaces do.
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double specials[] = {0.0, -0.0, inf, -inf, nan};
    Rng rng(0x7A1D24);
    constexpr std::size_t kRows = 2;
    Matrix bt_t;
    Matrix out;
    for (std::size_t inner : {3, 4, 7, 96}) {
        for (std::size_t width : {1, 3, 7, 24}) {
            for (std::size_t pos = 0; pos < inner; ++pos) {
                for (double lhs_special : specials) {
                    for (double rhs_special : specials) {
                        Matrix a = randomMatrix(rng, kRows, inner);
                        Matrix bt = randomMatrix(rng, width, inner);
                        for (std::size_t r = 0; r < kRows; ++r)
                            a.at(r, pos) = lhs_special;
                        bt.at(pos % width, pos) = rhs_special;
                        const Matrix expected = naiveMatmulTransposed(a, bt);
                        expectIdentical(expected, a.matmulTransposed(bt),
                                        "matmulTransposed widths");
                        bt.transposeInto(bt_t);
                        expectIdentical(bt.transposed(), bt_t,
                                        "transposeInto");
                        a.matmulNoSkipInto(bt_t, out);
                        expectIdentical(expected, out,
                                        "matmulNoSkipInto widths");
                    }
                }
            }
        }
    }
}

TEST(Matrix, ColumnTilesMatchTextbookLoopsBitwise)
{
    // Widths that are multiples of the 32-column register tile (32, 64,
    // 96) and widths that keep the row body on either side of them,
    // over inner sizes from 1 to the LSTM's 4H = 96.  Each trial scatters
    // ±0.0, ±inf and NaN through both operands at one density (0 leaves
    // rows with no exact zero, which the tile adds without a skip), and
    // every entry point must match its textbook loop bit for bit:
    // matmulInto and transposedMatmulInto skip an exact-zero lhs,
    // matmulNoSkipInto and matmulTransposed add every term.
    //
    // Several NaNs can meet in one element here, and IEEE 754 leaves
    // which payload survives to the operand order of the add, which
    // the compiler may commute.  So the NaN placed is the one the
    // hardware makes of inf - inf (and 0 * inf): then every NaN in the
    // product has the same bits, and bitwise equality stays exact.
    const double inf = std::numeric_limits<double>::infinity();
    volatile double runtime_inf = inf;
    const double nan = runtime_inf - runtime_inf;
    const double specials[] = {0.0, -0.0, inf, -inf, nan};
    Rng rng(0x711E5);
    const auto fill = [&](std::size_t rows, std::size_t cols,
                          double density) {
        Matrix m(rows, cols);
        for (double &value : m.raw())
            value = rng.bernoulli(density)
                        ? specials[static_cast<std::size_t>(
                              rng.uniformInt(0, 4))]
                        : rng.uniform(-3.0, 3.0);
        return m;
    };
    constexpr std::size_t kRows = 3;
    Matrix out;
    for (std::size_t width :
         {1, 3, 4, 7, 8, 24, 31, 32, 33, 56, 64, 96, 97}) {
        for (std::size_t inner : {1, 3, 7, 24, 56, 96}) {
            for (double density : {0.0, 0.02, 0.2}) {
                const Matrix a = fill(kRows, inner, density);
                const Matrix b = fill(inner, width, density);
                const Matrix at = fill(inner, kRows, density);
                const Matrix bt = fill(width, inner, density);
                a.matmulInto(b, out);
                expectIdentical(naiveMatmul(a, b), out, "matmulInto tiles");
                at.transposedMatmulInto(b, out);
                expectIdentical(naiveMatmul(at.transposed(), b), out,
                                "transposedMatmulInto tiles");
                const Matrix no_skip = naiveMatmulTransposed(a, bt);
                expectIdentical(no_skip, a.matmulTransposed(bt),
                                "matmulTransposed tiles");
                a.matmulNoSkipInto(bt.transposed(), out);
                expectIdentical(no_skip, out, "matmulNoSkipInto tiles");
            }
        }
    }
}

} // namespace
} // namespace adrias::ml
