/** @file End-to-end training tests: losses, optimizers, convergence. */

#include <gtest/gtest.h>

#include <cmath>

#include "common/io/binary.hh"
#include "common/rng.hh"
#include "ml/dense.hh"
#include "ml/loss.hh"
#include "ml/lstm.hh"
#include "ml/optimizer.hh"
#include "ml/scaler.hh"
#include "ml/sequential.hh"
#include "ml/serialize.hh"
#include "gradient_check.hh"

namespace adrias::ml
{
namespace
{

TEST(MseLoss, ValueAndGradient)
{
    Matrix pred(1, 2, {1.0, 3.0});
    Matrix target(1, 2, {0.0, 1.0});
    Matrix grad;
    const double loss = mseLoss(pred, target, &grad);
    EXPECT_DOUBLE_EQ(loss, (1.0 + 4.0) / 2.0);
    EXPECT_DOUBLE_EQ(grad.at(0, 0), 1.0);  // 2*1/2
    EXPECT_DOUBLE_EQ(grad.at(0, 1), 2.0);  // 2*2/2
}

TEST(MseLoss, ShapeMismatchPanics)
{
    EXPECT_THROW(mseLoss(Matrix(1, 2), Matrix(2, 1)), std::logic_error);
}

TEST(Optimizer, ZeroGradClearsAccumulators)
{
    Rng rng(1);
    Dense layer(2, 2, rng);
    Matrix grad_pred;
    mseLoss(layer.forward(Matrix::constant(1, 2, 1.0)),
            Matrix::constant(1, 2, 0.5), &grad_pred);
    layer.backward(grad_pred);
    Adam opt(layer.params());
    opt.zeroGrad();
    for (Param *p : layer.params())
        EXPECT_DOUBLE_EQ(testutil::maxAbs(p->grad), 0.0);
}

TEST(Optimizer, ClipGradNormScalesDown)
{
    Rng rng(2);
    Dense layer(2, 2, rng);
    for (Param *p : layer.params())
        for (double &g : p->grad.raw())
            g = 10.0;
    Adam opt(layer.params());
    const double before = opt.clipGradNorm(1.0);
    EXPECT_GT(before, 1.0);
    double total_sq = 0.0;
    for (Param *p : layer.params())
        for (double g : p->grad.raw())
            total_sq += g * g;
    EXPECT_NEAR(std::sqrt(total_sq), 1.0, 1e-9);
}

TEST(Optimizer, RejectsNullParam)
{
    std::vector<Param *> bad{nullptr};
    EXPECT_THROW(Adam(bad, 1e-3), std::logic_error);
}

TEST(Adam, ConvergesFasterThanPlainLoop)
{
    Rng rng(4);
    Dense layer(2, 1, rng);
    Adam opt(layer.params(), 0.05);
    double final_loss = 1.0;
    for (int epoch = 0; epoch < 300; ++epoch) {
        Matrix x(16, 2);
        Matrix y(16, 1);
        for (int i = 0; i < 16; ++i) {
            const double a = rng.uniform(-1.0, 1.0);
            const double b = rng.uniform(-1.0, 1.0);
            x.at(i, 0) = a;
            x.at(i, 1) = b;
            y.at(i, 0) = 3.0 * a - 0.5 * b + 0.25;
        }
        opt.zeroGrad();
        Matrix grad;
        final_loss = mseLoss(layer.forward(x), y, &grad);
        layer.backward(grad);
        opt.step();
    }
    EXPECT_LT(final_loss, 1e-4);
}

TEST(Adam, RejectsNonPositiveLearningRate)
{
    Rng rng(6);
    Dense layer(1, 1, rng);
    EXPECT_THROW(Adam(layer.params(), 0.0), std::runtime_error);
}

TEST(Training, LstmLearnsRunningMean)
{
    // Task: predict the mean of a 6-step scalar sequence — a miniature
    // of the system-state forecasting problem.
    Rng rng(7);
    Lstm lstm(1, 8, rng);
    Dense readout(8, 1, rng);

    std::vector<Param *> all = lstm.params();
    for (Param *p : readout.params())
        all.push_back(p);
    Adam opt(all, 0.01);

    double loss_value = 1.0;
    for (int step = 0; step < 600; ++step) {
        const std::size_t batch = 16;
        std::vector<Matrix> seq(6, Matrix(batch, 1));
        Matrix target(batch, 1);
        for (std::size_t b = 0; b < batch; ++b) {
            double total = 0.0;
            for (int t = 0; t < 6; ++t) {
                const double v = rng.uniform(-1.0, 1.0);
                seq[t].at(b, 0) = v;
                total += v;
            }
            target.at(b, 0) = total / 6.0;
        }
        opt.zeroGrad();
        const auto hidden = lstm.forwardSequence(seq);
        const Matrix pred = readout.forward(hidden.back());
        Matrix grad;
        loss_value = mseLoss(pred, target, &grad);
        std::vector<Matrix> grad_hidden(seq.size(),
                                        Matrix(batch, 8));
        grad_hidden.back() = readout.backward(grad);
        lstm.backwardSequence(grad_hidden);
        opt.clipGradNorm(5.0);
        opt.step();
    }
    EXPECT_LT(loss_value, 0.01);
}

TEST(Scaler, TransformInverseRoundTrip)
{
    Rng rng(8);
    Matrix data(50, 3);
    for (double &x : data.raw())
        x = rng.gaussian(5.0, 3.0);
    StandardScaler scaler;
    scaler.fit(data);
    const Matrix round = scaler.inverseTransform(scaler.transform(data));
    EXPECT_LT(testutil::maxAbs(round - data), 1e-9);
}

TEST(Scaler, TransformedStatisticsAreStandard)
{
    Rng rng(9);
    Matrix data(2000, 2);
    for (std::size_t r = 0; r < data.rows(); ++r) {
        data.at(r, 0) = rng.gaussian(100.0, 25.0);
        data.at(r, 1) = rng.gaussian(-3.0, 0.5);
    }
    StandardScaler scaler;
    scaler.fit(data);
    const Matrix z = scaler.transform(data);
    for (std::size_t c = 0; c < 2; ++c) {
        double mean = 0.0;
        for (std::size_t r = 0; r < z.rows(); ++r)
            mean += z.at(r, c);
        mean /= static_cast<double>(z.rows());
        EXPECT_NEAR(mean, 0.0, 1e-9);
    }
}

TEST(Scaler, ConstantColumnIsLeftUnscaled)
{
    Matrix data(4, 1, {7.0, 7.0, 7.0, 7.0});
    StandardScaler scaler;
    scaler.fit(data);
    const Matrix z = scaler.transform(data);
    // Mean removed, std forced to 1.
    EXPECT_DOUBLE_EQ(testutil::maxAbs(z), 0.0);
}

TEST(Scaler, UseBeforeFitIsFatal)
{
    StandardScaler scaler;
    EXPECT_THROW(scaler.transform(Matrix(1, 1)), std::runtime_error);
}

TEST(Scaler, ScalarHelpersMatchMatrixPath)
{
    Matrix data(3, 2, {1.0, 10.0, 2.0, 20.0, 3.0, 30.0});
    StandardScaler scaler;
    scaler.fit(data);
    const double z = scaler.transformScalar(2.0, 0);
    EXPECT_NEAR(scaler.inverseTransformScalar(z, 0), 2.0, 1e-12);
}

TEST(Scaler, SequenceFitAndTransform)
{
    Rng rng(10);
    std::vector<std::vector<Matrix>> sequences;
    for (int s = 0; s < 4; ++s) {
        std::vector<Matrix> seq;
        for (int t = 0; t < 5; ++t) {
            Matrix m(1, 2);
            m.at(0, 0) = rng.gaussian(4.0, 1.0);
            m.at(0, 1) = rng.gaussian(-2.0, 3.0);
            seq.push_back(std::move(m));
        }
        sequences.push_back(std::move(seq));
    }
    StandardScaler scaler;
    scaler.fitSequences(sequences);
    EXPECT_TRUE(scaler.fitted());
    const auto z = scaler.transformSequence(sequences[0]);
    EXPECT_EQ(z.size(), 5u);
}

TEST(Serialize, RoundTripRestoresWeights)
{
    Rng rng_a(11), rng_b(12);
    Dense a(3, 2, rng_a);
    Dense b(3, 2, rng_b);

    io::BinaryWriter out;
    saveParams(out, a.params());
    io::BinaryReader in(out.data());
    Result<std::vector<Matrix>> values = loadParams(in, b.params());
    ASSERT_TRUE(values.ok());
    ASSERT_TRUE(in.status().ok());
    for (std::size_t i = 0; i < b.params().size(); ++i)
        b.params()[i]->value = std::move(values.value()[i]);

    const Matrix probe = Matrix::constant(2, 3, 0.7);
    EXPECT_EQ(a.forward(probe).raw(), b.forward(probe).raw());
}

TEST(Serialize, ShapeMismatchIsFatal)
{
    Rng rng(13);
    Dense a(3, 2, rng);
    Dense wrong(2, 2, rng);
    io::BinaryWriter out;
    saveParams(out, a.params());
    io::BinaryReader in(out.data());
    const Result<std::vector<Matrix>> values =
        loadParams(in, wrong.params());
    ASSERT_FALSE(values.ok());
    EXPECT_EQ(values.error().code, ErrorCode::Geometry);
}

} // namespace
} // namespace adrias::ml
