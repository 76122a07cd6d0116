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
 * patterns against the loop oracle in lstm_oracle.hh.  A host
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
#include "lstm_oracle.hh"
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

const std::size_t kHidden[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 24};
const std::size_t kBatch[] = {1, 2, 32};

TEST(GateLoopSpecials, ForwardMatchesElementOracleBitwise)
{
    for (std::size_t hidden : kHidden) {
        for (std::size_t batch : kBatch) {
            for (bool inference : {true, false}) {
                Case c = makeCase(hidden, batch);
                c.lstm.setInference(inference);
                const std::vector<Matrix> got =
                    c.lstm.forwardSequence(c.sequence);
                const std::vector<Matrix> want = oracle::forward(
                    oracle::weightsOf(c.lstm), c.sequence);
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
}

TEST(GateLoopSpecials, TrainingCachesMatchReferenceGradientsBitwise)
{
    // Backward reads only what the training gate loop cached (gates,
    // c_t, tanh c_t), so gradients equal to the oracle's BPTT prove
    // the cache stores bit for bit.
    for (std::size_t hidden : kHidden) {
        for (std::size_t batch : kBatch) {
            Case c = makeCase(hidden, batch);
            const std::vector<Matrix> out =
                c.lstm.forwardSequence(c.sequence);
            std::vector<Matrix> grad_hidden;
            for (const Matrix &h : out)
                grad_hidden.push_back(
                    Matrix::constant(h.rows(), h.cols(), 0.5));
            const oracle::LstmGrads g = oracle::backward(
                oracle::weightsOf(c.lstm), c.sequence, grad_hidden);
            std::vector<Matrix> want = g.inputs;
            want.insert(want.end(), {g.wx, g.wh, g.b});

            std::vector<Matrix> got = c.lstm.backwardSequence(grad_hidden);
            for (Param *p : c.lstm.params())
                got.push_back(p->grad);
            ASSERT_EQ(got.size(), want.size());
            for (std::size_t i = 0; i < got.size(); ++i) {
                expectSameBits(got[i], want[i],
                               caseLabel(hidden, batch) + " gradient " +
                                   std::to_string(i));
            }
        }
    }
}

} // namespace
} // namespace adrias::ml
