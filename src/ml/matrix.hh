/**
 * @file
 * Dense row-major matrix — the numeric workhorse of the from-scratch
 * deep-learning substrate.
 *
 * Everything the Adrias models need (batched dense layers, LSTM cells)
 * is expressible with 2-D matrices; sequences are carried as
 * time-major vectors of (batch x features) matrices.
 *
 * The hot kernels write into a caller-owned destination
 * (`a.matmulInto(b, c)`) and reuse its storage, so the LSTM/GEMM hot
 * path runs allocation-free over persistent workspaces (DESIGN.md
 * §11).
 */

#ifndef ADRIAS_ML_MATRIX_HH
#define ADRIAS_ML_MATRIX_HH

#include <cstddef>
#include <string>
#include <vector>

#include "common/invariant.hh"

namespace adrias::ml
{

/** Row-major dense matrix of doubles. */
class Matrix
{
  public:
    /** Empty 0x0 matrix. */
    Matrix() = default;

    /** @param rows_ row count; @param cols_ column count (zero-filled). */
    Matrix(std::size_t rows_, std::size_t cols_);

    /** Construct with explicit contents; panics unless shapeHolds(). */
    Matrix(std::size_t rows_, std::size_t cols_, std::vector<double> values);

    /** Do `count` values fill rows x cols?  Divides: rows * cols wraps. */
    static bool
    shapeHolds(std::size_t rows, std::size_t cols, std::size_t count)
    {
        return cols == 0 ? count == 0
                         : count % cols == 0 && count / cols == rows;
    }

    /** @return matrix filled with a constant. */
    static Matrix constant(std::size_t rows, std::size_t cols, double value);

    std::size_t rows() const { return nRows; }
    std::size_t cols() const { return nCols; }
    std::size_t size() const { return data.size(); }
    bool empty() const { return data.empty(); }

    /**
     * Element access.  Bounds are checked only when ADRIAS_INVARIANT
     * checks are compiled in (the default outside Release); a
     * violation routes through the invariant handler, whose default
     * panics with std::logic_error.  Release builds index directly —
     * the hot kernels bypass at() through raw() either way.
     */
    double &
    at(std::size_t r, std::size_t c)
    {
        ADRIAS_INVARIANT(r < nRows && c < nCols,
                         "Matrix::at(" + std::to_string(r) + ", " +
                             std::to_string(c) + ") out of range " +
                             shape());
        return data[r * nCols + c];
    }

    /** Const element access; bounds-checked like the mutable form. */
    double
    at(std::size_t r, std::size_t c) const
    {
        ADRIAS_INVARIANT(r < nRows && c < nCols,
                         "Matrix::at(" + std::to_string(r) + ", " +
                             std::to_string(c) + ") out of range " +
                             shape());
        return data[r * nCols + c];
    }

    /** Raw row-major storage. */
    std::vector<double> &raw() { return data; }
    const std::vector<double> &raw() const { return data; }

    /**
     * Reshape to rows x cols, zero-filling every element.  Reuses the
     * existing allocation when capacity suffices — the workspace-reuse
     * primitive behind the allocation-free kernels.
     */
    void resize(std::size_t rows_, std::size_t cols_);

    /**
     * Reshape to rows x cols without clearing: surviving elements keep
     * their previous values and grown storage is zero-filled.  Only
     * for destinations the caller overwrites in full before reading —
     * anything else would leak stale values into results.
     */
    void resizeForOverwrite(std::size_t rows_, std::size_t cols_);

    /**
     * Matrix product (m x k) * (k x n) -> (m x n) into a caller-owned
     * destination (resized and zeroed here); an exact-zero lhs is
     * skipped (DESIGN.md §11.1).  `out` must not alias either operand.
     */
    void matmulInto(const Matrix &other, Matrix &out) const;

    /** this^T * other without materializing the transpose; same
     *  contract as matmulInto(). */
    void transposedMatmulInto(const Matrix &other, Matrix &out) const;

    /** this * other^T; no exact-zero lhs is skipped (DESIGN.md §11.1). */
    Matrix matmulTransposed(const Matrix &other) const;

    /**
     * Into-destination form of matmulTransposed(); same contract as
     * matmulInto().  Transposes `other` into a temporary and runs
     * matmulNoSkipInto(); a caller multiplying by one `other` many
     * times keeps the transpose in a workspace and calls that instead.
     */
    void matmulTransposedInto(const Matrix &other, Matrix &out) const;

    /**
     * Matrix product like matmulInto(), but every k term is added: an
     * exact-zero lhs is not skipped, so ±inf/NaN in the rhs propagate.
     * a.matmulNoSkipInto(b.transposed(), out) is bitwise
     * a.matmulTransposedInto(b, out).
     */
    void matmulNoSkipInto(const Matrix &other, Matrix &out) const;

    /** @return transposed copy. */
    Matrix transposed() const;

    /** Transpose into a caller-owned destination (resized here); `dst`
     *  must not alias this. */
    void transposeInto(Matrix &dst) const;

    /** Element-wise sum; shapes must match. */
    Matrix operator+(const Matrix &other) const;

    /** Element-wise difference; shapes must match. */
    Matrix operator-(const Matrix &other) const;

    /** Element-wise (Hadamard) product; shapes must match. */
    Matrix hadamard(const Matrix &other) const;

    /** Scalar multiple. */
    Matrix operator*(double scalar) const;

    /** In-place element-wise accumulate. */
    Matrix &operator+=(const Matrix &other);

    /** In-place scalar scale. */
    Matrix &operator*=(double scalar);

    /** Add a 1 x cols row vector to every row (bias broadcast). */
    void addRowBroadcastInPlace(const Matrix &row);

    /**
     * Accumulate the column-wise sums into an existing 1 x cols row
     * vector: per column, the rows fold into a fresh 0.0 accumulator
     * in row order, which is then added to dst once.
     */
    void sumRowsAddTo(Matrix &dst) const;

    /** Concatenate horizontally: [this | other]; row counts must match. */
    Matrix hconcat(const Matrix &other) const;

    /** Copy columns [begin, end) into `dst`, which must not alias
     *  this. */
    void colRangeInto(std::size_t begin, std::size_t end,
                      Matrix &dst) const;

    /** Copy of one row as a 1 x cols matrix. */
    Matrix row(std::size_t r) const;

    /** Zero all elements in place. */
    void setZero();

    /** Frobenius norm. */
    double norm() const;

    /** Shape string "RxC" for diagnostics. */
    std::string shape() const;

  private:
    std::size_t nRows = 0;
    std::size_t nCols = 0;
    std::vector<double> data;

    void checkSameShape(const Matrix &other, const char *op) const;
    void checkNoAlias(const Matrix &out, const char *op) const;
};

} // namespace adrias::ml

#endif // ADRIAS_ML_MATRIX_HH
