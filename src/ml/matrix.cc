#include "ml/matrix.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "ml/simd.hh"

namespace adrias::ml
{

namespace
{

/**
 * out_row[j] += lhs[k * lhs_stride] * rhs[k * width + j] over k in
 * increasing order: the one scalar row body of the GEMM family.
 * matmulInto runs it over a row of the lhs (lhs_stride 1),
 * transposedMatmulInto over a column (lhs_stride = its column count),
 * both with SkipZeroLhs; matmulNoSkipInto, the kernel behind
 * matmulTransposedInto, runs it over a row without.
 *
 * k is unrolled by four with the adds parenthesized in k order:
 * ((((out + l0*r0) + l1*r1) + l2*r2) + l3*r3) is the exact scalar op
 * sequence of four single-k iterations, so the result stays bitwise
 * identical while the destination row round-trips through registers a
 * quarter as often.  With SkipZeroLhs, a group with any exact-zero lhs
 * falls back to the single-k form so the sparsity skip stays
 * element-exact; without it every k is added, specials included.
 */
template <bool SkipZeroLhs>
[[gnu::always_inline]] inline void
accumulateRow(const double *__restrict lhs, std::size_t lhs_stride,
              const double *__restrict rhs, std::size_t inner,
              std::size_t width, double *__restrict out_row)
{
    std::size_t k = 0;
    for (; k + 3 < inner; k += 4) {
        const double l0 = lhs[k * lhs_stride];
        const double l1 = lhs[(k + 1) * lhs_stride];
        const double l2 = lhs[(k + 2) * lhs_stride];
        const double l3 = lhs[(k + 3) * lhs_stride];
        const double *r0 = &rhs[k * width];
        const double *r1 = r0 + width;
        const double *r2 = r1 + width;
        const double *r3 = r2 + width;
        // Exact-zero sparsity skips; a tolerance would change results.
        const bool dense4 =
            !SkipZeroLhs ||
            (l0 != 0.0 && l1 != 0.0 && // NOLINT(float-equal)
             l2 != 0.0 && l3 != 0.0);  // NOLINT(float-equal)
        if (dense4) {
            for (std::size_t j = 0; j < width; ++j)
                out_row[j] = ((((out_row[j] + l0 * r0[j]) + l1 * r1[j]) +
                               l2 * r2[j]) +
                              l3 * r3[j]);
            continue;
        }
        for (std::size_t kk = k; kk < k + 4; ++kk) {
            const double l = lhs[kk * lhs_stride];
            // NOLINTNEXTLINE(float-equal)
            if (l == 0.0)
                continue;
            const double *rhs_row = &rhs[kk * width];
            for (std::size_t j = 0; j < width; ++j)
                out_row[j] += l * rhs_row[j];
        }
    }
    for (; k < inner; ++k) {
        const double l = lhs[k * lhs_stride];
        // NOLINTNEXTLINE(float-equal)
        if (SkipZeroLhs && l == 0.0)
            continue;
        const double *rhs_row = &rhs[k * width];
        for (std::size_t j = 0; j < width; ++j)
            out_row[j] += l * rhs_row[j];
    }
}

/** Output columns per register tile: 8 AVX2 registers of 4 lanes. */
constexpr std::size_t kTileCols = 32;

/**
 * The tile body: kTileCols output columns of one row, each element's
 * accumulator held in a register across all of k.  It starts from the
 * element's value in `out_tile`, adds l_k * r_kj in ascending k,
 * leaves it untouched at an exact-zero l_k when SkipZeroLhs is on, and
 * is stored once at the end: element for element the op sequence of
 * accumulateRow, so both bodies return the same bits.
 *
 * The first and the last added term are peeled, so `acc` is loaded
 * and stored by sums rather than by plain copy loops, which GCC would
 * turn into memcpy calls whose 16-byte stores the 32-byte reloads of
 * the accumulators cannot forward from.
 */
template <bool SkipZeroLhs>
[[gnu::always_inline]] inline void
accumulateTile(const double *__restrict lhs, std::size_t lhs_stride,
               const double *__restrict rhs, std::size_t inner,
               std::size_t width, double *__restrict out_tile)
{
    const auto skipped = [&](std::size_t k) {
        // NOLINTNEXTLINE(float-equal)
        return SkipZeroLhs && lhs[k * lhs_stride] == 0.0;
    };
    std::size_t first = 0;
    while (first < inner && skipped(first))
        ++first;
    if (first == inner)
        return; // every term skipped: the tile keeps its values
    std::size_t last = inner - 1;
    while (skipped(last))
        --last;

    const double l_first = lhs[first * lhs_stride];
    const double *r_first = &rhs[first * width];
    if (first == last) {
        for (std::size_t j = 0; j < kTileCols; ++j)
            out_tile[j] += l_first * r_first[j];
        return;
    }
    double acc[kTileCols];
    for (std::size_t j = 0; j < kTileCols; ++j)
        acc[j] = out_tile[j] + l_first * r_first[j];
    for (std::size_t k = first + 1; k < last; ++k) {
        if (skipped(k))
            continue;
        const double l = lhs[k * lhs_stride];
        const double *rhs_row = &rhs[k * width];
        for (std::size_t j = 0; j < kTileCols; ++j)
            acc[j] += l * rhs_row[j];
    }
    const double l_last = lhs[last * lhs_stride];
    const double *r_last = &rhs[last * width];
    for (std::size_t j = 0; j < kTileCols; ++j)
        out_tile[j] = acc[j] + l_last * r_last[j];
}

/**
 * The GEMM body over `rows` output rows: lhs row i starts at
 * lhs + i * lhs_row_stride and steps lhs_k_stride per k.  A width that
 * is a multiple of kTileCols (the heads' 32, the LSTM's 4H = 96 gate
 * columns) runs as register tiles; any other width (1, 7, 24) keeps
 * the row body, where a tile would hold too few add chains to pay.
 * One call per GEMM, so the clone dispatch is paid once, not per row.
 */
template <bool SkipZeroLhs>
ADRIAS_SCALAR_CLONES void
accumulateRows(const double *__restrict lhs, std::size_t lhs_row_stride,
               std::size_t lhs_k_stride, const double *__restrict rhs,
               std::size_t rows, std::size_t inner, std::size_t width,
               double *__restrict out)
{
    if (width % kTileCols == 0) {
        for (std::size_t i = 0; i < rows; ++i)
            for (std::size_t j0 = 0; j0 < width; j0 += kTileCols)
                accumulateTile<SkipZeroLhs>(lhs + i * lhs_row_stride,
                                            lhs_k_stride, rhs + j0, inner,
                                            width, out + i * width + j0);
        return;
    }
    for (std::size_t i = 0; i < rows; ++i)
        accumulateRow<SkipZeroLhs>(lhs + i * lhs_row_stride, lhs_k_stride,
                                   rhs, inner, width, out + i * width);
}

} // namespace

Matrix::Matrix(std::size_t rows_, std::size_t cols_)
    : nRows(rows_), nCols(cols_), data(rows_ * cols_, 0.0)
{
}

Matrix::Matrix(std::size_t rows_, std::size_t cols_,
               std::vector<double> values)
    : nRows(rows_), nCols(cols_), data(std::move(values))
{
    if (!shapeHolds(nRows, nCols, data.size()))
        panic("Matrix: initializer size does not match shape");
}

Matrix
Matrix::constant(std::size_t rows, std::size_t cols, double value)
{
    Matrix m(rows, cols);
    for (double &x : m.data)
        x = value;
    return m;
}

void
Matrix::resize(std::size_t rows_, std::size_t cols_)
{
    nRows = rows_;
    nCols = cols_;
    // assign reuses the existing allocation when capacity suffices.
    data.assign(rows_ * cols_, 0.0);
}

void
Matrix::resizeForOverwrite(std::size_t rows_, std::size_t cols_)
{
    nRows = rows_;
    nCols = cols_;
    data.resize(rows_ * cols_);
}

void
Matrix::checkSameShape(const Matrix &other, const char *op) const
{
    if (nRows != other.nRows || nCols != other.nCols) {
        panic(std::string("Matrix shape mismatch in ") + op + ": " +
              shape() + " vs " + other.shape());
    }
}

void
Matrix::checkNoAlias(const Matrix &out, const char *op) const
{
    if (this == &out)
        panic(std::string("Matrix::") + op + ": destination aliases source");
}

void
Matrix::matmulInto(const Matrix &other, Matrix &out) const
{
    if (nCols != other.nRows) {
        panic("Matrix::matmulInto inner dimension mismatch: " + shape() +
              " * " + other.shape());
    }
    checkNoAlias(out, "matmulInto");
    other.checkNoAlias(out, "matmulInto");
    out.resize(nRows, other.nCols);
    const std::size_t inner = nCols;
    const std::size_t width = other.nCols;
    // Each output row accumulates over k in fixed index order; i-k-j
    // loop order keeps the inner loop contiguous in both inputs.
    // checkNoAlias guarantees the operands are distinct objects, so
    // the __restrict in accumulateRows is sound and lets the j loop
    // vectorize without runtime alias checks.
    accumulateRows<true>(data.data(), inner, 1, other.data.data(), nRows,
                         inner, width, out.data.data());
}

void
Matrix::transposedMatmulInto(const Matrix &other, Matrix &out) const
{
    // (this^T * other): this is (k x m), other (k x n) -> (m x n)
    if (nRows != other.nRows) {
        panic("Matrix::transposedMatmulInto dimension mismatch: " + shape() +
              "^T * " + other.shape());
    }
    checkNoAlias(out, "transposedMatmulInto");
    other.checkNoAlias(out, "transposedMatmulInto");
    out.resize(nCols, other.nCols);
    const std::size_t inner = nRows;
    const std::size_t width = other.nCols;
    // Looped over output rows i (columns of this).  Every out(i, j)
    // accumulates over k in increasing order — the same per-element
    // order as a k-outer loop — so per-sample gradient contributions
    // (k indexes the sample in backward passes) are summed in fixed
    // index order.
    accumulateRows<true>(data.data(), 1, nCols, other.data.data(), nCols,
                         inner, width, out.data.data());
}

Matrix
Matrix::matmulTransposed(const Matrix &other) const
{
    Matrix out;
    matmulTransposedInto(other, out);
    return out;
}

void
Matrix::matmulTransposedInto(const Matrix &other, Matrix &out) const
{
    // (this * other^T): this is (m x k), other (n x k) -> (m x n)
    if (nCols != other.nCols) {
        panic("Matrix::matmulTransposed dimension mismatch: " + shape() +
              " * " + other.shape() + "^T");
    }
    checkNoAlias(out, "matmulTransposedInto");
    other.checkNoAlias(out, "matmulTransposedInto");
    // Row k of other^T is the k-th term of every out(i, j), so the row
    // body runs over contiguous rhs rows.
    Matrix other_t;
    other.transposeInto(other_t);
    matmulNoSkipInto(other_t, out);
}

void
Matrix::matmulNoSkipInto(const Matrix &other, Matrix &out) const
{
    if (nCols != other.nRows) {
        panic("Matrix::matmulNoSkip inner dimension mismatch: " + shape() +
              " * " + other.shape());
    }
    checkNoAlias(out, "matmulNoSkipInto");
    other.checkNoAlias(out, "matmulNoSkipInto");
    out.resize(nRows, other.nCols);
    const std::size_t inner = nCols;
    const std::size_t width = other.nCols;
    // Every out(i, j) starts at +0.0 and adds lhs*rhs over k in
    // increasing order with nothing skipped: bitwise the textbook dot
    // product of row i and column j.
    accumulateRows<false>(data.data(), inner, 1, other.data.data(), nRows,
                          inner, width, out.data.data());
}

Matrix
Matrix::transposed() const
{
    Matrix out;
    transposeInto(out);
    return out;
}

void
Matrix::transposeInto(Matrix &dst) const
{
    checkNoAlias(dst, "transposeInto");
    // Every element is assigned, so overwrite-resize is safe.
    dst.resizeForOverwrite(nCols, nRows);
    for (std::size_t c = 0; c < nCols; ++c)
        for (std::size_t r = 0; r < nRows; ++r)
            dst.data[c * nRows + r] = data[r * nCols + c];
}

Matrix
Matrix::operator+(const Matrix &other) const
{
    checkSameShape(other, "operator+");
    Matrix out = *this;
    for (std::size_t i = 0; i < data.size(); ++i)
        out.data[i] += other.data[i];
    return out;
}

Matrix
Matrix::operator-(const Matrix &other) const
{
    checkSameShape(other, "operator-");
    Matrix out = *this;
    for (std::size_t i = 0; i < data.size(); ++i)
        out.data[i] -= other.data[i];
    return out;
}

Matrix
Matrix::hadamard(const Matrix &other) const
{
    checkSameShape(other, "hadamard");
    Matrix out = *this;
    for (std::size_t i = 0; i < data.size(); ++i)
        out.data[i] *= other.data[i];
    return out;
}

Matrix
Matrix::operator*(double scalar) const
{
    Matrix out = *this;
    out *= scalar;
    return out;
}

Matrix &
Matrix::operator+=(const Matrix &other)
{
    checkSameShape(other, "operator+=");
    if (this == &other) {
        // Self-add: x + x rounds exactly (a power-of-two scale), and
        // the __restrict loop below must not see aliased operands.
        for (double &x : data)
            x += x;
        return *this;
    }
    double *__restrict dst = data.data();
    const double *__restrict src = other.data.data();
    for (std::size_t i = 0; i < data.size(); ++i)
        dst[i] += src[i];
    return *this;
}

Matrix &
Matrix::operator*=(double scalar)
{
    for (double &x : data)
        x *= scalar;
    return *this;
}

void
Matrix::addRowBroadcastInPlace(const Matrix &rowVec)
{
    if (rowVec.nRows != 1 || rowVec.nCols != nCols)
        panic("Matrix::addRowBroadcastInPlace shape mismatch");
    if (this == &rowVec) {
        // Self-broadcast onto a 1-row matrix is a plain self-add.
        for (double &x : data)
            x += x;
        return;
    }
    double *__restrict dst = data.data();
    const double *__restrict row = rowVec.data.data();
    for (std::size_t r = 0; r < nRows; ++r)
        for (std::size_t c = 0; c < nCols; ++c)
            dst[r * nCols + c] += row[c];
}

void
Matrix::sumRowsAddTo(Matrix &dst) const
{
    if (dst.nRows != 1 || dst.nCols != nCols) {
        panic("Matrix::sumRowsAddTo shape mismatch: " + shape() +
              " into " + dst.shape());
    }
    checkNoAlias(dst, "sumRowsAddTo");
    // Per column: fold the rows into a fresh 0.0 accumulator in row
    // order, then add once into dst (the LSTM's bias gradient relies
    // on this order, DESIGN.md §11.1).
    for (std::size_t c = 0; c < nCols; ++c) {
        double acc = 0.0;
        for (std::size_t r = 0; r < nRows; ++r)
            acc += data[r * nCols + c];
        dst.data[c] += acc;
    }
}

Matrix
Matrix::hconcat(const Matrix &other) const
{
    if (nRows != other.nRows)
        panic("Matrix::hconcat row count mismatch");
    Matrix out(nRows, nCols + other.nCols);
    for (std::size_t r = 0; r < nRows; ++r) {
        for (std::size_t c = 0; c < nCols; ++c)
            out.data[r * out.nCols + c] = data[r * nCols + c];
        for (std::size_t c = 0; c < other.nCols; ++c)
            out.data[r * out.nCols + nCols + c] =
                other.data[r * other.nCols + c];
    }
    return out;
}

void
Matrix::colRangeInto(std::size_t begin, std::size_t end, Matrix &dst) const
{
    if (begin > end || end > nCols)
        panic("Matrix::colRangeInto out of bounds");
    checkNoAlias(dst, "colRangeInto");
    // Every element is assigned, so overwrite-resize is safe.
    dst.resizeForOverwrite(nRows, end - begin);
    for (std::size_t r = 0; r < nRows; ++r)
        for (std::size_t c = begin; c < end; ++c)
            dst.data[r * dst.nCols + (c - begin)] = data[r * nCols + c];
}

Matrix
Matrix::row(std::size_t r) const
{
    if (r >= nRows)
        panic("Matrix::row out of range");
    Matrix out(1, nCols);
    for (std::size_t c = 0; c < nCols; ++c)
        out.data[c] = data[r * nCols + c];
    return out;
}

void
Matrix::setZero()
{
    for (double &x : data)
        x = 0.0;
}

double
Matrix::norm() const
{
    double total = 0.0;
    for (double x : data)
        total += x * x;
    return std::sqrt(total);
}

std::string
Matrix::shape() const
{
    std::string text = std::to_string(nRows);
    text += 'x';
    text += std::to_string(nCols);
    return text;
}

} // namespace adrias::ml
