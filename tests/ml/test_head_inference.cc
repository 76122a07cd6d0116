/**
 * @file
 * The inference head path (Layer::inferInPlace) against the allocating
 * forward: same bits, no effect on training.
 */

#include <bit>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "ml/loss.hh"
#include "ml/sequential.hh"

namespace adrias::ml
{
namespace
{

constexpr std::size_t kInput = 56;
constexpr std::size_t kWidth = 32;
constexpr std::size_t kOutput = 1;

/** Gaussian values with some exact zeros, as ReLU and the mode
 *  column feed the heads. */
Matrix
randomInput(std::size_t rows, Rng &rng)
{
    Matrix m(rows, kInput);
    for (double &x : m.raw())
        x = rng.bernoulli(0.1) ? 0.0 : rng.gaussian();
    return m;
}

void
expectBitwise(const Matrix &expected, const Matrix &actual,
              const char *what)
{
    ASSERT_EQ(expected.rows(), actual.rows()) << what;
    ASSERT_EQ(expected.cols(), actual.cols()) << what;
    for (std::size_t i = 0; i < expected.size(); ++i)
        ASSERT_EQ(std::bit_cast<std::uint64_t>(expected.raw()[i]),
                  std::bit_cast<std::uint64_t>(actual.raw()[i]))
            << what << " element " << i;
}

/** The models' head at the serve shape, with dropout on, and the Rng
 *  its Dropout layers draw from (so it lives as long as they do). */
struct Head
{
    explicit Head(HeadNorm norm, std::uint64_t seed) : rng(seed)
    {
        net = makeNonLinearHead(kInput, kWidth, kOutput, 0.1, rng, norm);
        // A few training-mode batches, so BatchNorm carries running
        // statistics.
        net->setTraining(true);
        Rng data(seed + 1);
        for (int batch = 0; batch < 3; ++batch)
            net->forward(randomInput(16, data));
        net->setTraining(false);
    }

    Rng rng;
    std::unique_ptr<Sequential> net;
};

/** Parameter gradients of one training-mode forward+backward. */
std::vector<Matrix>
trainingGradients(Sequential &head, const Matrix &input)
{
    head.setInference(false);
    head.setTraining(true);
    for (Param *p : head.params())
        p->zeroGrad();
    const Matrix out = head.forward(input);
    Matrix grad;
    mseLoss(out, Matrix(out.rows(), out.cols()), &grad);
    head.backward(grad);
    std::vector<Matrix> grads;
    for (Param *p : head.params())
        grads.push_back(p->grad);
    return grads;
}

TEST(HeadInference, InPlaceMatchesAllocatingForwardBitwise)
{
    for (HeadNorm norm : {HeadNorm::Layer, HeadNorm::Batch}) {
        SCOPED_TRACE(norm == HeadNorm::Layer ? "layer norm" : "batch norm");
        Head owner(norm, 17);
        Sequential *head = owner.net.get();
        Rng data(99);
        // One head over every row count in turn, so each call reuses
        // workspaces shaped by the previous one.
        for (std::size_t rows : {1, 3, 4, 5, 32, 64, 65}) {
            const Matrix input = randomInput(rows, data);
            head->setInference(false);
            const Matrix expected = head->forward(input);

            head->setInference(true);
            expectBitwise(expected, head->forward(input), "forward");
            Matrix activation = input;
            head->inferInPlace(activation);
            expectBitwise(expected, activation, "inferInPlace");
            activation = input;
            head->inferInPlace(activation);
            expectBitwise(expected, activation, "inferInPlace again");
        }

        // Inference leaves training untouched: the same gradients as a
        // twin head that never ran it, Dropout masks included.
        Head twin(norm, 17);
        const Matrix batch = randomInput(32, data);
        const std::vector<Matrix> after = trainingGradients(*head, batch);
        const std::vector<Matrix> fresh = trainingGradients(*twin.net, batch);
        ASSERT_EQ(after.size(), fresh.size());
        for (std::size_t i = 0; i < after.size(); ++i)
            expectBitwise(fresh[i], after[i], "gradient");
    }
}

TEST(HeadInference, InPlaceRequiresInferenceMode)
{
    Head head(HeadNorm::Layer, 5);
    Matrix activation(2, kInput);
    EXPECT_THROW(head.net->inferInPlace(activation), std::logic_error);
}

} // namespace
} // namespace adrias::ml
