/**
 * @file
 * Equivalence suite for the fused LSTM kernels (DESIGN.md §11.1): the
 * layer must match the loop oracle in lstm_oracle.hh bit for bit —
 * forward outputs, input and parameter gradients, and weights after a
 * whole training loop — over ragged shapes, the inference fast-path
 * must match training-mode outputs exactly while skipping the caches,
 * and one layer reused across batch widths must stay exact.
 */

#include <cstddef>
#include <stdexcept>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "lstm_oracle.hh"
#include "ml/lstm.hh"
#include "ml/matrix.hh"

namespace
{

using adrias::Rng;
using adrias::ml::Lstm;
using adrias::ml::Matrix;
using adrias::ml::Param;
namespace oracle = adrias::ml::oracle;

Matrix
randomMatrix(Rng &rng, std::size_t rows, std::size_t cols)
{
    Matrix m(rows, cols);
    for (double &value : m.raw())
        value = rng.uniform(-2.0, 2.0);
    // Sprinkle exact zeros so the GEMM zero-skip branch is exercised.
    for (double &value : m.raw())
        if (rng.bernoulli(0.1))
            value = 0.0;
    return m;
}

std::vector<Matrix>
randomSequence(Rng &rng, std::size_t steps, std::size_t batch,
               std::size_t input)
{
    std::vector<Matrix> sequence;
    sequence.reserve(steps);
    for (std::size_t t = 0; t < steps; ++t)
        sequence.push_back(randomMatrix(rng, batch, input));
    return sequence;
}

void
expectIdentical(const Matrix &expected, const Matrix &actual,
                const char *what)
{
    ASSERT_EQ(expected.rows(), actual.rows()) << what;
    ASSERT_EQ(expected.cols(), actual.cols()) << what;
    // Bitwise, not approximate: the contract is exact equality.
    ASSERT_EQ(expected.raw(), actual.raw()) << what;
}

void
expectIdentical(const std::vector<Matrix> &expected,
                const std::vector<Matrix> &actual, const char *what)
{
    ASSERT_EQ(expected.size(), actual.size()) << what;
    for (std::size_t i = 0; i < expected.size(); ++i)
        expectIdentical(expected[i], actual[i], what);
}

/** Ragged sweep: degenerate and small shapes, and both encoder
 *  layers' shapes (input 7, then 24, at hidden 24 over 12 steps) at
 *  b32, b1 and a ragged last batch of 17. */
struct LstmShape
{
    std::size_t steps, batch, input, hidden;
};

constexpr LstmShape kShapes[] = {
    {1, 1, 1, 1},     {3, 2, 5, 4},      {5, 7, 3, 13},
    {2, 1, 9, 6},     {4, 3, 16, 5},     {12, 32, 7, 24},
    {12, 1, 7, 24},   {12, 17, 7, 24},   {12, 32, 24, 24},
    {12, 1, 24, 24},
};

/** Fresh layer with weights deterministic in the seed. */
Lstm
makeLstm(const LstmShape &shape, unsigned seed)
{
    Rng rng(seed);
    return Lstm(shape.input, shape.hidden, rng);
}

/** Every parameter gradient of `lstm` against the oracle's. */
void
expectParamGrads(Lstm &lstm, const oracle::LstmGrads &want,
                 const char *what)
{
    const auto params = lstm.params();
    expectIdentical(want.wx, params[0]->grad, what);
    expectIdentical(want.wh, params[1]->grad, what);
    expectIdentical(want.b, params[2]->grad, what);
}

TEST(FusedEquivalenceTest, ForwardOutputsBitwiseEqual)
{
    Rng rng(0xFA57ED);
    for (const auto &shape : kShapes) {
        const auto sequence =
            randomSequence(rng, shape.steps, shape.batch, shape.input);
        Lstm lstm = makeLstm(shape, 7001);
        expectIdentical(
            oracle::forward(oracle::weightsOf(lstm), sequence),
            lstm.forwardSequence(sequence), "forward");
    }
}

TEST(FusedEquivalenceTest, BackwardGradientsBitwiseEqual)
{
    Rng rng(0xBACC1);
    for (const auto &shape : kShapes) {
        const auto sequence =
            randomSequence(rng, shape.steps, shape.batch, shape.input);
        const auto grad_hidden =
            randomSequence(rng, shape.steps, shape.batch, shape.hidden);

        Lstm lstm = makeLstm(shape, 7002);
        const oracle::LstmGrads want = oracle::backward(
            oracle::weightsOf(lstm), sequence, grad_hidden);
        lstm.forwardSequence(sequence);
        expectIdentical(want.inputs, lstm.backwardSequence(grad_hidden),
                        "grad inputs");
        expectParamGrads(lstm, want, "param grad");
    }
}

TEST(FusedEquivalenceTest, TrainedWeightsBitwiseEqual)
{
    // A whole training loop — repeated forward/backward/SGD — must
    // leave the oracle's weights: any divergence anywhere would
    // compound.
    const LstmShape shape{6, 5, 4, 9};
    constexpr int kSteps = 8;
    constexpr double kLr = 0.05;

    Rng data_rng(0x7EA1);
    const auto sequence =
        randomSequence(data_rng, shape.steps, shape.batch, shape.input);
    const auto target =
        randomSequence(data_rng, shape.steps, shape.batch, shape.hidden);
    const auto loss_grad = [&](const std::vector<Matrix> &outputs) {
        std::vector<Matrix> grad;
        for (std::size_t t = 0; t < outputs.size(); ++t)
            grad.push_back(outputs[t] - target[t]);
        return grad;
    };

    Lstm lstm = makeLstm(shape, 7003);
    oracle::LstmWeights w = oracle::weightsOf(lstm);
    for (int iter = 0; iter < kSteps; ++iter) {
        lstm.backwardSequence(loss_grad(lstm.forwardSequence(sequence)));
        for (Param *param : lstm.params()) {
            param->value += param->grad * -kLr;
            param->zeroGrad();
        }

        const oracle::LstmGrads g = oracle::backward(
            w, sequence, loss_grad(oracle::forward(w, sequence)));
        w.wx += g.wx * -kLr;
        w.wh += g.wh * -kLr;
        w.b += g.b * -kLr;
    }
    const auto params = lstm.params();
    expectIdentical(w.wx, params[0]->value, "trained wx");
    expectIdentical(w.wh, params[1]->value, "trained wh");
    expectIdentical(w.b, params[2]->value, "trained b");
}

TEST(FusedEquivalenceTest, InferenceFastPathMatchesTrainingOutputs)
{
    Rng rng(0x1FE5);
    for (const auto &shape : kShapes) {
        const auto sequence =
            randomSequence(rng, shape.steps, shape.batch, shape.input);
        Lstm lstm = makeLstm(shape, 7004);
        const auto want = oracle::forward(oracle::weightsOf(lstm), sequence);
        expectIdentical(want, lstm.forwardSequence(sequence),
                        "training forward");
        lstm.setInference(true);
        expectIdentical(want, lstm.forwardSequence(sequence),
                        "inference forward");
    }
}

TEST(FusedEquivalenceTest, BackwardAfterInferenceForwardPanics)
{
    const LstmShape shape{3, 2, 4, 5};
    Rng rng(0xDEAD5);
    const auto sequence =
        randomSequence(rng, shape.steps, shape.batch, shape.input);
    const auto grad =
        randomSequence(rng, shape.steps, shape.batch, shape.hidden);
    Lstm lstm = makeLstm(shape, 7005);
    lstm.setInference(true);
    lstm.forwardSequence(sequence);
    // No caches were built, so BPTT has nothing to consume.
    EXPECT_THROW(lstm.backwardSequence(grad), std::logic_error);
}

TEST(FusedEquivalenceTest, OneLayerAcrossBatchWidthsMatchesOracle)
{
    // A model trains one layer at b32 with a ragged last batch, then
    // serves b1 and b32 inference on the same instance, so the
    // workspaces and step caches are resized between calls.  Every
    // call must still match the oracle, for both encoder layers' input
    // widths at hidden 24 over 12 steps.
    enum class Phase
    {
        Train,
        TrainSkipInput,
        Infer,
    };
    const std::pair<std::size_t, Phase> phases[] = {
        {32, Phase::Train}, {17, Phase::TrainSkipInput},
        {1, Phase::Infer},  {32, Phase::Infer},
        {1, Phase::Train},
    };
    for (std::size_t input : {7, 24}) {
        Rng rng(0x5EED + input);
        Lstm lstm(input, 24, rng);
        const oracle::LstmWeights w = oracle::weightsOf(lstm);
        for (const auto &[batch, phase] : phases) {
            const auto sequence = randomSequence(rng, 12, batch, input);
            lstm.setInference(phase == Phase::Infer);
            expectIdentical(oracle::forward(w, sequence),
                            lstm.forwardSequence(sequence), "forward");
            if (phase == Phase::Infer)
                continue;

            const auto grad_hidden = randomSequence(rng, 12, batch, 24);
            const oracle::LstmGrads want =
                oracle::backward(w, sequence, grad_hidden);
            for (Param *param : lstm.params())
                param->zeroGrad();
            if (phase == Phase::TrainSkipInput) {
                EXPECT_TRUE(lstm.backwardSequence(grad_hidden,
                                                  Lstm::InputGrad::Skip)
                                .empty());
            } else {
                expectIdentical(want.inputs,
                                lstm.backwardSequence(grad_hidden),
                                "grad inputs");
            }
            expectParamGrads(lstm, want, "param grad");
        }
    }
}

} // namespace
