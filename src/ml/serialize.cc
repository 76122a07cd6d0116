#include "ml/serialize.hh"

#include <string>
#include <string_view>

#include "common/logging.hh"

namespace adrias::ml
{

namespace
{

constexpr std::string_view kParamsTag = "params-v1";
constexpr std::string_view kStateTensorsTag = "state-tensors-v1";
constexpr std::string_view kScalerTag = "scaler-v1";

/** The smallest encoded Matrix: rows, cols and an empty value count. */
constexpr std::size_t kMinMatrixBytes = 3 * 8;

void
saveTagged(io::BinaryWriter &out, std::string_view tag,
           const std::vector<const Matrix *> &tensors)
{
    out.writeString(tag);
    out.writeU64(tensors.size());
    for (const Matrix *tensor : tensors)
        saveMatrix(out, *tensor);
}

/** Decode a saveTagged() list whose count and shapes match `like`. */
[[nodiscard]] Result<std::vector<Matrix>>
loadTagged(io::BinaryReader &in, std::string_view tag,
           const std::vector<const Matrix *> &like)
{
    if (Result<void> header = in.expectTag(tag); !header)
        return header.error();
    Result<std::vector<Matrix>> tensors = loadMatrixSequence(in);
    if (!tensors)
        return tensors;
    if (tensors.value().size() != like.size())
        return makeError(ErrorCode::Geometry,
                         std::string(tag) + ": tensor count mismatch");
    for (std::size_t i = 0; i < like.size(); ++i)
        if (tensors.value()[i].rows() != like[i]->rows() ||
            tensors.value()[i].cols() != like[i]->cols())
            return makeError(ErrorCode::Geometry,
                             std::string(tag) + ": shape mismatch at " +
                                 std::to_string(i));
    return tensors;
}

std::vector<const Matrix *>
valuesOf(const std::vector<Param *> &params)
{
    std::vector<const Matrix *> values;
    values.reserve(params.size());
    for (const Param *p : params)
        values.push_back(&p->value);
    return values;
}

} // namespace

void
saveMatrix(io::BinaryWriter &out, const Matrix &matrix)
{
    out.writeU64(matrix.rows());
    out.writeU64(matrix.cols());
    out.writeF64Vector(matrix.raw());
}

Result<Matrix>
loadMatrix(io::BinaryReader &in)
{
    const std::uint64_t rows = in.readU64();
    const std::uint64_t cols = in.readU64();
    std::vector<double> values = in.readF64Vector();
    if (!in.ok())
        return makeError(ErrorCode::Truncated, "truncated matrix");
    if (!Matrix::shapeHolds(rows, cols, values.size()))
        return makeError(ErrorCode::Geometry,
                         "matrix data size does not match its declared "
                         "shape");
    return Matrix(rows, cols, std::move(values));
}

void
saveMatrixSequence(io::BinaryWriter &out,
                   const std::vector<Matrix> &sequence)
{
    out.writeU64(sequence.size());
    for (const Matrix &step : sequence)
        saveMatrix(out, step);
}

Result<std::vector<Matrix>>
loadMatrixSequence(io::BinaryReader &in)
{
    const std::uint64_t steps = in.readU64();
    if (!in.ok() || steps > in.remaining() / kMinMatrixBytes)
        return makeError(ErrorCode::Truncated,
                         "truncated matrix sequence");
    std::vector<Matrix> sequence;
    sequence.reserve(steps);
    for (std::uint64_t s = 0; s < steps; ++s) {
        Result<Matrix> step = loadMatrix(in);
        if (!step)
            return step.error();
        sequence.push_back(std::move(step.value()));
    }
    return sequence;
}

void
saveParams(io::BinaryWriter &out, const std::vector<Param *> &params)
{
    saveTagged(out, kParamsTag, valuesOf(params));
}

Result<std::vector<Matrix>>
loadParams(io::BinaryReader &in, const std::vector<Param *> &params)
{
    return loadTagged(in, kParamsTag, valuesOf(params));
}

void
saveStateTensors(io::BinaryWriter &out,
                 const std::vector<Matrix *> &tensors)
{
    saveTagged(out, kStateTensorsTag, {tensors.begin(), tensors.end()});
}

Result<std::vector<Matrix>>
loadStateTensors(io::BinaryReader &in,
                 const std::vector<Matrix *> &tensors)
{
    return loadTagged(in, kStateTensorsTag,
                      {tensors.begin(), tensors.end()});
}

void
saveScaler(io::BinaryWriter &out, const StandardScaler &scaler)
{
    if (!scaler.fitted())
        panic("saveScaler: scaler is not fitted");
    out.writeString(kScalerTag);
    out.writeF64Vector(scaler.mean());
    out.writeF64Vector(scaler.stddev());
}

Result<StandardScaler>
loadScaler(io::BinaryReader &in, std::size_t width)
{
    if (Result<void> header = in.expectTag(kScalerTag); !header)
        return header.error();
    std::vector<double> means = in.readF64Vector();
    std::vector<double> stds = in.readF64Vector();
    if (!in.ok())
        return makeError(ErrorCode::Truncated, "truncated scaler");
    if (means.size() != width || stds.size() != width)
        return makeError(ErrorCode::Geometry, "scaler width mismatch");
    StandardScaler scaler;
    scaler.restore(std::move(means), std::move(stds));
    return scaler;
}

} // namespace adrias::ml
