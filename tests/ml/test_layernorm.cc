/** @file Tests for LayerNorm and the BatchNorm stats-estimation API. */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "ml/batchnorm.hh"
#include "ml/layernorm.hh"
#include "ml/loss.hh"
#include "ml/sequential.hh"
#include "gradient_check.hh"

namespace adrias::ml
{
namespace
{

Matrix
randomMatrix(std::size_t rows, std::size_t cols, Rng &rng)
{
    Matrix m(rows, cols);
    for (double &x : m.raw())
        x = rng.gaussian(1.0, 2.0);
    return m;
}

TEST(LayerNorm, OutputRowsAreStandardized)
{
    Rng rng(1);
    LayerNorm ln(8);
    const Matrix out = ln.forward(randomMatrix(5, 8, rng));
    for (std::size_t r = 0; r < out.rows(); ++r) {
        double mean = 0.0;
        for (std::size_t c = 0; c < out.cols(); ++c)
            mean += out.at(r, c);
        mean /= 8.0;
        double var = 0.0;
        for (std::size_t c = 0; c < out.cols(); ++c) {
            const double d = out.at(r, c) - mean;
            var += d * d;
        }
        var /= 8.0;
        EXPECT_NEAR(mean, 0.0, 1e-9);
        EXPECT_NEAR(var, 1.0, 1e-3);
    }
}

TEST(LayerNorm, IdenticalInTrainAndEval)
{
    Rng rng(2);
    LayerNorm ln(4);
    const Matrix input = randomMatrix(3, 4, rng);
    ln.setTraining(true);
    const Matrix train_out = ln.forward(input);
    ln.setTraining(false);
    const Matrix eval_out = ln.forward(input);
    EXPECT_LT(testutil::maxAbs(train_out - eval_out), 1e-12);
}

TEST(LayerNorm, SingleSampleWorks)
{
    // The property BatchNorm lacks: batch size 1 is fine.
    Rng rng(3);
    LayerNorm ln(6);
    const Matrix out = ln.forward(randomMatrix(1, 6, rng));
    EXPECT_EQ(out.rows(), 1u);
    EXPECT_LT(testutil::maxAbs(out), 10.0);
}

TEST(LayerNorm, InputGradientMatchesNumerical)
{
    Rng rng(4);
    LayerNorm ln(5);
    Matrix input = randomMatrix(4, 5, rng);
    Matrix target = randomMatrix(4, 5, rng);

    Matrix grad_pred;
    mseLoss(ln.forward(input), target, &grad_pred);
    const Matrix grad_input = ln.backward(grad_pred);
    const double err = testutil::maxGradientError(
        input, grad_input,
        [&] { return mseLoss(ln.forward(input), target); });
    EXPECT_LT(err, 1e-4);
}

TEST(LayerNorm, ParameterGradientsMatchNumerical)
{
    Rng rng(5);
    LayerNorm ln(4);
    Matrix input = randomMatrix(3, 4, rng);
    Matrix target = randomMatrix(3, 4, rng);

    for (Param *p : ln.params())
        p->zeroGrad();
    Matrix grad_pred;
    mseLoss(ln.forward(input), target, &grad_pred);
    ln.backward(grad_pred);

    for (Param *p : ln.params()) {
        const double err = testutil::maxGradientError(
            p->value, p->grad,
            [&] { return mseLoss(ln.forward(input), target); });
        EXPECT_LT(err, 1e-4) << p->name;
    }
}

TEST(LayerNorm, WidthMismatchPanics)
{
    LayerNorm ln(4);
    EXPECT_THROW(ln.forward(Matrix(2, 5)), std::logic_error);
}

TEST(HeadNorm, FactorySelectsNormalization)
{
    Rng rng(6);
    auto batch_head =
        makeNonLinearHead(4, 8, 1, 0.0, rng, HeadNorm::Batch);
    auto layer_head =
        makeNonLinearHead(4, 8, 1, 0.0, rng, HeadNorm::Layer);
    // Same parameter tensors either way (norm layer swapped in place).
    EXPECT_EQ(batch_head->params().size(), layer_head->params().size());

    // LayerNorm head: train and eval forward agree exactly.
    layer_head->setTraining(true);
    const Matrix input = randomMatrix(1, 4, rng);
    const Matrix a = layer_head->forward(input);
    layer_head->setTraining(false);
    const Matrix b = layer_head->forward(input);
    EXPECT_LT(testutil::maxAbs(a - b), 1e-12);
}

TEST(BatchNormEstimation, ReplacesRunningStatsWithPopulation)
{
    Rng rng(7);
    BatchNorm1d bn(2, 0.01); // tiny momentum: running stats lag badly
    Matrix data = randomMatrix(256, 2, rng);

    // A few training passes leave the (slow) running stats far off.
    for (int i = 0; i < 3; ++i)
        bn.forward(data);
    // Estimation pass computes exact population statistics.
    bn.beginStatsEstimation();
    bn.forward(data);
    bn.endStatsEstimation();

    for (std::size_t c = 0; c < 2; ++c) {
        double mean = 0.0;
        for (std::size_t r = 0; r < data.rows(); ++r)
            mean += data.at(r, c);
        mean /= static_cast<double>(data.rows());
        EXPECT_NEAR(bn.stateTensors()[0]->at(0, c), mean, 1e-9);
    }
}

TEST(BatchNormEstimation, EndWithoutBeginPanics)
{
    BatchNorm1d bn(2);
    EXPECT_THROW(bn.endStatsEstimation(), std::logic_error);
}

TEST(BatchNormEstimation, EmptyEstimationKeepsOldStats)
{
    BatchNorm1d bn(1);
    // stateTensors() is {running mean, running variance}.
    *bn.stateTensors()[0] = Matrix(1, 1, {5.0});
    *bn.stateTensors()[1] = Matrix(1, 1, {2.0});
    bn.beginStatsEstimation();
    bn.endStatsEstimation(); // no forward in between
    EXPECT_DOUBLE_EQ(bn.stateTensors()[0]->at(0, 0), 5.0);
    EXPECT_DOUBLE_EQ(bn.stateTensors()[1]->at(0, 0), 2.0);
}

} // namespace
} // namespace adrias::ml
