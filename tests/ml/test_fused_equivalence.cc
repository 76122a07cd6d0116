/**
 * @file
 * Equivalence suite for the fused LSTM/GEMM kernels (DESIGN.md §11):
 * the fused hot path must produce results bitwise identical to the
 * retained reference formulation — forward outputs, backward
 * gradients, and weights after whole training loops — over ragged
 * shapes, and the inference fast-path must match training-mode
 * outputs exactly while skipping the caches.
 */

#include <cstddef>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "ml/lstm.hh"
#include "ml/matrix.hh"

namespace
{

using adrias::Rng;
using adrias::ml::Lstm;
using adrias::ml::lstmFusedKernels;
using adrias::ml::Matrix;
using adrias::ml::Param;
using adrias::ml::setLstmFusedKernels;

/** Saves and restores the global fused-kernel knob. */
class FusedEquivalenceTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        savedFused = lstmFusedKernels();
    }

    void
    TearDown() override
    {
        setLstmFusedKernels(savedFused);
    }

    bool savedFused = true;
};

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

/** Ragged sweep: degenerate, small, and training-realistic shapes. */
struct LstmShape
{
    std::size_t steps, batch, input, hidden;
};

constexpr LstmShape kShapes[] = {
    {1, 1, 1, 1},   {3, 2, 5, 4},   {5, 7, 3, 13},
    {2, 1, 9, 6},   {12, 32, 7, 24}, {4, 3, 16, 5},
};

/** Fresh layer with weights deterministic in the seed. */
Lstm
makeLstm(const LstmShape &shape, unsigned seed)
{
    Rng rng(seed);
    return Lstm(shape.input, shape.hidden, rng);
}

TEST_F(FusedEquivalenceTest, ForwardOutputsBitwiseEqual)
{
    Rng rng(0xFA57ED);
    for (const auto &shape : kShapes) {
        const auto sequence =
            randomSequence(rng, shape.steps, shape.batch, shape.input);

        // The global switch is read at forward time.
        setLstmFusedKernels(false);
        Lstm reference = makeLstm(shape, 7001);
        const auto expected = reference.forwardSequence(sequence);
        setLstmFusedKernels(true);
        Lstm fused = makeLstm(shape, 7001);
        expectIdentical(expected, fused.forwardSequence(sequence),
                        "fused forward");
    }
}

TEST_F(FusedEquivalenceTest, BackwardGradientsBitwiseEqual)
{
    Rng rng(0xBACC1);
    for (const auto &shape : kShapes) {
        const auto sequence =
            randomSequence(rng, shape.steps, shape.batch, shape.input);
        const auto grad_hidden =
            randomSequence(rng, shape.steps, shape.batch, shape.hidden);

        setLstmFusedKernels(false);
        Lstm reference = makeLstm(shape, 7002);
        reference.forwardSequence(sequence);
        const auto ref_inputs = reference.backwardSequence(grad_hidden);

        setLstmFusedKernels(true);
        Lstm fused = makeLstm(shape, 7002);
        fused.forwardSequence(sequence);
        expectIdentical(ref_inputs, fused.backwardSequence(grad_hidden),
                        "grad inputs");
        const auto ref_params = reference.params();
        const auto params = fused.params();
        ASSERT_EQ(params.size(), ref_params.size());
        for (std::size_t i = 0; i < params.size(); ++i)
            expectIdentical(ref_params[i]->grad, params[i]->grad,
                            "param grad");
    }
}

TEST_F(FusedEquivalenceTest, TrainedWeightsBitwiseEqual)
{
    // A whole training loop — repeated forward/backward/SGD — must
    // leave identical weights: any divergence anywhere would compound.
    const LstmShape shape{6, 5, 4, 9};
    constexpr int kSteps = 8;
    constexpr double kLr = 0.05;

    auto train = [&](bool fused) {
        setLstmFusedKernels(fused);
        Rng data_rng(0x7EA1);
        Lstm lstm = makeLstm(shape, 7003);
        const auto sequence = randomSequence(data_rng, shape.steps,
                                             shape.batch, shape.input);
        const auto target = randomSequence(data_rng, shape.steps,
                                           shape.batch, shape.hidden);
        for (int iter = 0; iter < kSteps; ++iter) {
            const auto outputs = lstm.forwardSequence(sequence);
            std::vector<Matrix> grad;
            grad.reserve(outputs.size());
            for (std::size_t t = 0; t < outputs.size(); ++t)
                grad.push_back(outputs[t] - target[t]);
            lstm.backwardSequence(grad);
            for (Param *param : lstm.params()) {
                param->value += param->grad * -kLr;
                param->zeroGrad();
            }
        }
        std::vector<Matrix> weights;
        for (Param *param : lstm.params())
            weights.push_back(param->value);
        return weights;
    };

    const auto reference = train(false);
    const auto weights = train(true);
    ASSERT_EQ(reference.size(), weights.size());
    for (std::size_t i = 0; i < weights.size(); ++i)
        expectIdentical(reference[i], weights[i], "trained weight");
}

TEST_F(FusedEquivalenceTest, InferenceFastPathMatchesTrainingOutputs)
{
    Rng rng(0x1FE5);
    for (const auto &shape : kShapes) {
        const auto sequence =
            randomSequence(rng, shape.steps, shape.batch, shape.input);
        for (bool fused : {true, false}) {
            setLstmFusedKernels(fused);
            Lstm lstm = makeLstm(shape, 7004);
            const auto trained = lstm.forwardSequence(sequence);
            lstm.setInference(true);
            expectIdentical(trained, lstm.forwardSequence(sequence),
                            "inference forward");
            lstm.setInference(false);
        }
    }
}

TEST_F(FusedEquivalenceTest, BackwardAfterInferenceForwardPanics)
{
    const LstmShape shape{3, 2, 4, 5};
    Rng rng(0xDEAD5);
    const auto sequence =
        randomSequence(rng, shape.steps, shape.batch, shape.input);
    const auto grad =
        randomSequence(rng, shape.steps, shape.batch, shape.hidden);
    for (bool fused : {true, false}) {
        setLstmFusedKernels(fused);
        Lstm lstm = makeLstm(shape, 7005);
        lstm.setInference(true);
        lstm.forwardSequence(sequence);
        // No caches were built, so BPTT has nothing to consume.
        EXPECT_THROW(lstm.backwardSequence(grad), std::logic_error);
    }
}

} // namespace
