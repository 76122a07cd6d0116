/**
 * @file
 * The one binary codec for matrix-valued state: a Matrix, a matrix
 * sequence, a Param list, state tensors and a fitted StandardScaler,
 * all over io::BinaryWriter/BinaryReader.  Doubles travel as their raw
 * 64-bit pattern, so a trained model restores bit for bit (the
 * paper's design-time training, run-time loading split) and a
 * snapshot section that carries a matrix resumes exactly.
 *
 * Layouts (little-endian):
 *  - Matrix: u64 rows, u64 cols, then the row-major values as an f64
 *    vector (u64 count + values);
 *  - matrix sequence: u64 step count, then one Matrix per step;
 *  - Param list / state tensors: a tag string, then the values as a
 *    matrix sequence;
 *  - scaler: a tag string, then the means and the stddevs as f64
 *    vectors.
 *
 * Decoders never write into their destination: they return the decoded
 * values or a typed Error (BadHeader for a wrong tag, Geometry for a
 * count or shape that disagrees, Truncated for short input), so a
 * caller commits only once everything decoded.  Every declared count
 * is bounded by the bytes left before anything is allocated for it.
 */

#ifndef ADRIAS_ML_SERIALIZE_HH
#define ADRIAS_ML_SERIALIZE_HH

#include <vector>

#include "common/error.hh"
#include "common/io/binary.hh"
#include "ml/layer.hh"
#include "ml/scaler.hh"

namespace adrias::ml
{

void saveMatrix(io::BinaryWriter &out, const Matrix &matrix);

/** Geometry when the value count does not fill the declared shape. */
[[nodiscard]] Result<Matrix> loadMatrix(io::BinaryReader &in);

/** A signature or a history window: one Matrix per step. */
void saveMatrixSequence(io::BinaryWriter &out,
                        const std::vector<Matrix> &sequence);

[[nodiscard]] Result<std::vector<Matrix>>
loadMatrixSequence(io::BinaryReader &in);

/** Every parameter's value, in order. */
void saveParams(io::BinaryWriter &out, const std::vector<Param *> &params);

/**
 * Decode values saved with saveParams(); the count and every shape
 * must match `params`, which are left untouched.
 */
[[nodiscard]] Result<std::vector<Matrix>>
loadParams(io::BinaryReader &in, const std::vector<Param *> &params);

/** Non-trainable tensors (normalization running statistics). */
void saveStateTensors(io::BinaryWriter &out,
                      const std::vector<Matrix *> &tensors);

/** Like loadParams(), for tensors saved with saveStateTensors(). */
[[nodiscard]] Result<std::vector<Matrix>>
loadStateTensors(io::BinaryReader &in,
                 const std::vector<Matrix *> &tensors);

/** @pre scaler.fitted(). */
void saveScaler(io::BinaryWriter &out, const StandardScaler &scaler);

/** Geometry unless the saved scaler is `width` columns wide. */
[[nodiscard]] Result<StandardScaler> loadScaler(io::BinaryReader &in,
                                                std::size_t width);

} // namespace adrias::ml

#endif // ADRIAS_ML_SERIALIZE_HH
