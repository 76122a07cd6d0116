/** @file Gradient-checked and behavioural tests for the LSTM layer. */

#include <cstring>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "ml/loss.hh"
#include "ml/lstm.hh"
#include "gradient_check.hh"

namespace adrias::ml
{
namespace
{

std::vector<Matrix>
randomSequence(std::size_t steps, std::size_t batch, std::size_t features,
               Rng &rng)
{
    std::vector<Matrix> seq;
    for (std::size_t t = 0; t < steps; ++t) {
        Matrix m(batch, features);
        for (double &x : m.raw())
            x = rng.gaussian();
        seq.push_back(std::move(m));
    }
    return seq;
}

TEST(Lstm, OutputShapes)
{
    Rng rng(1);
    Lstm lstm(5, 7, rng);
    const auto out = lstm.forwardSequence(randomSequence(4, 3, 5, rng));
    ASSERT_EQ(out.size(), 4u);
    for (const auto &h : out) {
        EXPECT_EQ(h.rows(), 3u);
        EXPECT_EQ(h.cols(), 7u);
    }
}

TEST(Lstm, EmptySequenceIsFatal)
{
    Rng rng(2);
    Lstm lstm(2, 2, rng);
    EXPECT_THROW(lstm.forwardSequence({}), std::runtime_error);
}

TEST(Lstm, InconsistentStepShapePanics)
{
    Rng rng(3);
    Lstm lstm(2, 2, rng);
    std::vector<Matrix> seq{Matrix(1, 2), Matrix(1, 3)};
    EXPECT_THROW(lstm.forwardSequence(seq), std::logic_error);
}

TEST(Lstm, HiddenStateIsBounded)
{
    // h = o * tanh(c) with o in (0,1) implies |h| < 1.
    Rng rng(4);
    Lstm lstm(3, 6, rng);
    const auto out = lstm.forwardSequence(randomSequence(50, 2, 3, rng));
    for (const auto &h : out)
        EXPECT_LT(testutil::maxAbs(h), 1.0);
}

TEST(Lstm, DeterministicGivenWeights)
{
    Rng rng_a(5), rng_b(5), rng_data(6);
    Lstm a(3, 4, rng_a);
    Lstm b(3, 4, rng_b);
    const auto seq = randomSequence(5, 2, 3, rng_data);
    const auto out_a = a.forwardSequence(seq);
    const auto out_b = b.forwardSequence(seq);
    for (std::size_t t = 0; t < out_a.size(); ++t)
        EXPECT_DOUBLE_EQ(testutil::maxAbs(out_a[t] - out_b[t]), 0.0);
}

TEST(Lstm, BackwardLengthMismatchPanics)
{
    Rng rng(7);
    Lstm lstm(2, 3, rng);
    lstm.forwardSequence(randomSequence(3, 1, 2, rng));
    std::vector<Matrix> wrong(2, Matrix(1, 3));
    EXPECT_THROW(lstm.backwardSequence(wrong), std::logic_error);
}

/** Scalar loss: MSE of the last hidden state against a fixed target. */
double
lastHiddenLoss(Lstm &lstm, const std::vector<Matrix> &seq,
               const Matrix &target)
{
    const auto out = lstm.forwardSequence(seq);
    return mseLoss(out.back(), target);
}

TEST(Lstm, InputGradientMatchesNumerical)
{
    Rng rng(8);
    Lstm lstm(3, 4, rng);
    auto seq = randomSequence(4, 2, 3, rng);
    Matrix target(2, 4);
    for (double &x : target.raw())
        x = rng.gaussian();

    const auto out = lstm.forwardSequence(seq);
    std::vector<Matrix> grad_hidden(seq.size(), Matrix(2, 4));
    mseLoss(out.back(), target, &grad_hidden.back());
    const auto grad_inputs = lstm.backwardSequence(grad_hidden);

    for (std::size_t t = 0; t < seq.size(); ++t) {
        Matrix &step = seq[t];
        const double err = testutil::maxGradientError(
            step, grad_inputs[t],
            [&] { return lastHiddenLoss(lstm, seq, target); });
        EXPECT_LT(err, 1e-4) << "timestep " << t;
    }
}

TEST(Lstm, ParameterGradientsMatchNumerical)
{
    Rng rng(9);
    Lstm lstm(2, 3, rng);
    auto seq = randomSequence(5, 2, 2, rng);
    Matrix target(2, 3);
    for (double &x : target.raw())
        x = rng.gaussian();

    for (Param *p : lstm.params())
        p->zeroGrad();
    const auto out = lstm.forwardSequence(seq);
    std::vector<Matrix> grad_hidden(seq.size(), Matrix(2, 3));
    mseLoss(out.back(), target, &grad_hidden.back());
    lstm.backwardSequence(grad_hidden);

    for (Param *p : lstm.params()) {
        const double err = testutil::maxGradientError(
            p->value, p->grad,
            [&] { return lastHiddenLoss(lstm, seq, target); });
        EXPECT_LT(err, 1e-4) << "param " << p->name;
    }
}

TEST(Lstm, GradientWithFullSequenceSupervision)
{
    // Supervise every timestep, not just the last one.
    Rng rng(10);
    Lstm lstm(2, 3, rng);
    auto seq = randomSequence(3, 1, 2, rng);
    std::vector<Matrix> targets;
    for (std::size_t t = 0; t < 3; ++t) {
        Matrix m(1, 3);
        for (double &x : m.raw())
            x = rng.gaussian();
        targets.push_back(std::move(m));
    }

    auto full_loss = [&] {
        const auto out = lstm.forwardSequence(seq);
        double total = 0.0;
        for (std::size_t t = 0; t < out.size(); ++t)
            total += mseLoss(out[t], targets[t]);
        return total;
    };

    for (Param *p : lstm.params())
        p->zeroGrad();
    const auto out = lstm.forwardSequence(seq);
    std::vector<Matrix> grad_hidden;
    for (std::size_t t = 0; t < out.size(); ++t) {
        Matrix g;
        mseLoss(out[t], targets[t], &g);
        grad_hidden.push_back(std::move(g));
    }
    lstm.backwardSequence(grad_hidden);

    for (Param *p : lstm.params()) {
        const double err =
            testutil::maxGradientError(p->value, p->grad, full_loss);
        EXPECT_LT(err, 1e-4) << "param " << p->name;
    }
}

/** Copies of every parameter gradient, for bitwise comparison. */
std::vector<std::vector<double>>
gradSnapshot(Lstm &lstm)
{
    std::vector<std::vector<double>> grads;
    for (Param *p : lstm.params())
        grads.push_back(p->grad.raw());
    return grads;
}

bool
sameBits(const std::vector<double> &a, const std::vector<double> &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// A first layer's dLoss/dX has no reader, so its models skip it; the
// wx, wh and b gradients must not move by a bit.  b32, hidden 24 and
// input 7 are the first encoder layer's training shapes.
TEST(Lstm, SkippingInputGradientLeavesParameterGradientsBitwise)
{
    Rng rng(12);
    Lstm lstm(7, 24, rng);
    const auto seq = randomSequence(6, 32, 7, rng);
    const auto grad_hidden = randomSequence(6, 32, 24, rng);
    lstm.forwardSequence(seq);

    for (Param *p : lstm.params())
        p->zeroGrad();
    const auto grad_inputs = lstm.backwardSequence(grad_hidden);
    ASSERT_EQ(grad_inputs.size(), seq.size());
    const auto with_input_grad = gradSnapshot(lstm);

    for (Param *p : lstm.params())
        p->zeroGrad();
    EXPECT_TRUE(
        lstm.backwardSequence(grad_hidden, Lstm::InputGrad::Skip).empty());
    const auto without_input_grad = gradSnapshot(lstm);

    const auto params = lstm.params();
    for (std::size_t i = 0; i < params.size(); ++i)
        EXPECT_TRUE(sameBits(with_input_grad[i], without_input_grad[i]))
            << params[i]->name;
}

TEST(Lstm, ForgetBiasInitializedToOne)
{
    Rng rng(11);
    Lstm lstm(2, 4, rng);
    Param *bias = lstm.params()[2];
    for (std::size_t c = 4; c < 8; ++c)
        EXPECT_DOUBLE_EQ(bias->value.at(0, c), 1.0);
    for (std::size_t c = 0; c < 4; ++c)
        EXPECT_DOUBLE_EQ(bias->value.at(0, c), 0.0);
}

} // namespace
} // namespace adrias::ml
