/**
 * @file
 * IEEE specials through the scalar LSTM gate loops (DESIGN.md §11.1).
 *
 * The fused gate loops in lstm.cc are built twice (baseline and AVX2,
 * ADRIAS_SCALAR_CLONES) with -fno-trapping-math, so the compiler
 * evaluates both arms of the sigmoid/tanh/expNeg selects and blends
 * them.  These tests drive forwardSequence with pre-activations at
 * every branch edge — ±0, ±inf, NaN, the ±708/±709 exp cutoff and
 * |x| around 0.125 where tanh switches formula — on every lane
 * position (hidden 1..9 and 24, batch 1/2/32), and compare bit
 * patterns against a one-element-at-a-time fastmath oracle.  A host
 * picks one clone, so the baseline clone is covered by the
 * -DADRIAS_SIMD=OFF build running this suite.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "ml/fastmath.hh"
#include "ml/lstm.hh"

namespace adrias::ml
{
namespace
{

constexpr double kInf = std::numeric_limits<double>::infinity();
const double kNaN = std::numeric_limits<double>::quiet_NaN();

/** Weights that put z on every branch edge of the gate math. */
std::vector<double>
specials()
{
    return {0.0,
            -0.0,
            kInf,
            -kInf,
            kNaN,
            708.0,
            -708.0,
            709.0,
            -709.0,
            std::nextafter(-708.0, 0.0),
            std::nextafter(-708.0, -kInf),
            0.125,
            -0.125,
            std::nextafter(0.125, 0.0),
            std::nextafter(0.125, 1.0),
            std::nextafter(-0.125, 0.0),
            std::nextafter(-0.125, -1.0),
            0.0625,
            1e-300,
            -std::numeric_limits<double>::denorm_min(),
            20.0,
            -20.0,
            0.7,
            -2.3};
}

/** Bit pattern, with every NaN read as one: payloads are not a contract. */
std::uint64_t
bits(double v)
{
    return std::isnan(v) ? 0x7ff8000000000000ull
                         : std::bit_cast<std::uint64_t>(v);
}

/** "h<hidden> b<batch>", appended: GCC 12 warns -Wrestrict on the
 *  `"h" + std::to_string(hidden)` form. */
std::string
caseLabel(std::size_t hidden, std::size_t batch)
{
    std::string label = "h";
    label += std::to_string(hidden);
    label += " b";
    label += std::to_string(batch);
    return label;
}

void
expectSameBits(const Matrix &got, const Matrix &want, const std::string &what)
{
    ASSERT_EQ(got.rows(), want.rows()) << what;
    ASSERT_EQ(got.cols(), want.cols()) << what;
    for (std::size_t i = 0; i < got.raw().size(); ++i) {
        ASSERT_EQ(bits(got.raw()[i]), bits(want.raw()[i]))
            << what << " element " << i << ": " << got.raw()[i] << " vs "
            << want.raw()[i];
    }
}

/** One (hidden, batch) case: an Lstm(1, hidden) and its 3-step input. */
struct Case
{
    Lstm lstm;
    std::vector<Matrix> sequence;
};

Case
makeCase(std::size_t hidden, std::size_t batch)
{
    Rng rng(hidden * 100 + batch);
    Case c{Lstm(1, hidden, rng), {}};
    const std::vector<double> edge = specials();
    const std::vector<Param *> params = c.lstm.params();
    // wx (1 x 4H): z = (x * wx + zh) + b, so with x = ±1 every column
    // lands on its special; the shift moves specials across lanes.
    std::vector<double> &wx = params[0]->value.raw();
    for (std::size_t j = 0; j < wx.size(); ++j)
        wx[j] = edge[(j + hidden) % edge.size()];
    // wh stays random: later steps feed h (NaN rows included) back.
    std::vector<double> &bias = params[2]->value.raw();
    for (std::size_t j = 0; j < bias.size(); ++j)
        bias[j] = j % 3 == 0 ? edge[(j * 7 + batch) % edge.size()] : 0.0;

    const double row_scale[] = {1.0, -1.0, 0.0, -0.0, 0.5, 2.0, -0.25};
    for (std::size_t t = 0; t < 3; ++t) {
        Matrix x(batch, 1);
        for (std::size_t r = 0; r < batch; ++r)
            x.at(r, 0) = row_scale[(r + t) % std::size(row_scale)];
        c.sequence.push_back(std::move(x));
    }
    return c;
}

/**
 * The forward pass one element at a time: textbook GEMMs with the
 * exact-zero lhs skip (DESIGN.md §11.1), then the gate math in the
 * reference's op order through the scalar fastmath functions.
 */
std::vector<Matrix>
oracleForward(Lstm &lstm, const std::vector<Matrix> &sequence)
{
    const std::vector<Param *> params = lstm.params();
    const Matrix &wx = params[0]->value;
    const Matrix &wh = params[1]->value;
    const Matrix &bias = params[2]->value;
    const std::size_t hidden = lstm.hiddenSize();
    const std::size_t batch = sequence.front().rows();
    const std::size_t width = 4 * hidden;

    auto product = [width](const Matrix &lhs, const Matrix &rhs,
                           std::size_t r) {
        std::vector<double> out(width, 0.0);
        for (std::size_t k = 0; k < lhs.cols(); ++k) {
            const double l = lhs.at(r, k);
            if (l == 0.0)
                continue;
            for (std::size_t j = 0; j < width; ++j)
                out[j] += l * rhs.at(k, j);
        }
        return out;
    };

    Matrix cell(batch, hidden);
    Matrix h(batch, hidden);
    std::vector<Matrix> outputs;
    for (const Matrix &x : sequence) {
        Matrix next(batch, hidden);
        for (std::size_t r = 0; r < batch; ++r) {
            const std::vector<double> zx = product(x, wx, r);
            const std::vector<double> zh = product(h, wh, r);
            auto z = [&](std::size_t gate, std::size_t c) {
                const std::size_t j = gate * hidden + c;
                return (zx[j] + zh[j]) + bias.at(0, j);
            };
            for (std::size_t c = 0; c < hidden; ++c) {
                const double gi = fastmath::sigmoid(z(0, c));
                const double gf = fastmath::sigmoid(z(1, c));
                const double gg = fastmath::tanh(z(2, c));
                const double go = fastmath::sigmoid(z(3, c));
                const double updated =
                    (gf * cell.at(r, c)) + (gi * gg);
                cell.at(r, c) = updated;
                next.at(r, c) = go * fastmath::tanh(updated);
            }
        }
        h = next;
        outputs.push_back(std::move(next));
    }
    return outputs;
}

const std::size_t kHidden[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 24};
const std::size_t kBatch[] = {1, 2, 32};

TEST(GateLoopSpecials, ForwardMatchesElementOracleBitwise)
{
    const bool was_fused = lstmFusedKernels();
    setLstmFusedKernels(true);
    for (std::size_t hidden : kHidden) {
        for (std::size_t batch : kBatch) {
            for (bool inference : {true, false}) {
                Case c = makeCase(hidden, batch);
                c.lstm.setInference(inference);
                const std::vector<Matrix> got =
                    c.lstm.forwardSequence(c.sequence);
                const std::vector<Matrix> want =
                    oracleForward(c.lstm, c.sequence);
                ASSERT_EQ(got.size(), want.size());
                for (std::size_t t = 0; t < got.size(); ++t) {
                    expectSameBits(
                        got[t], want[t],
                        caseLabel(hidden, batch) +
                            (inference ? " inference" : " training") +
                            " step " + std::to_string(t));
                }
            }
        }
    }
    setLstmFusedKernels(was_fused);
}

TEST(GateLoopSpecials, TrainingCachesMatchReferenceGradientsBitwise)
{
    // Backward reads only what the training gate loop cached (gates,
    // c_t, tanh c_t), so gradients equal to the reference path's prove
    // the cache stores bit for bit.
    const bool was_fused = lstmFusedKernels();
    for (std::size_t hidden : kHidden) {
        for (std::size_t batch : kBatch) {
            std::vector<std::vector<Matrix>> grads;
            for (bool fused : {true, false}) {
                setLstmFusedKernels(fused);
                Case c = makeCase(hidden, batch);
                const std::vector<Matrix> out =
                    c.lstm.forwardSequence(c.sequence);
                std::vector<Matrix> grad_hidden;
                for (const Matrix &h : out)
                    grad_hidden.push_back(Matrix::constant(
                        h.rows(), h.cols(), 0.5));
                std::vector<Matrix> result =
                    c.lstm.backwardSequence(grad_hidden);
                for (Param *p : c.lstm.params())
                    result.push_back(p->grad);
                grads.push_back(std::move(result));
            }
            ASSERT_EQ(grads[0].size(), grads[1].size());
            for (std::size_t i = 0; i < grads[0].size(); ++i) {
                expectSameBits(grads[0][i], grads[1][i],
                               caseLabel(hidden, batch) + " gradient " +
                                   std::to_string(i));
            }
        }
    }
    setLstmFusedKernels(was_fused);
}

} // namespace
} // namespace adrias::ml
