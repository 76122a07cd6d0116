/**
 * @file
 * The LSTM written one element at a time: the loop oracle that the
 * layer's kernels (src/ml/lstm.cc) are checked against bit for bit.
 * It shares no kernel code with the library — only Matrix storage,
 * at(), and the scalar fastmath functions — and follows the op order
 * of DESIGN.md §11.1:
 *
 * - x·Wx, h·Wh and Xᵀ·dz are textbook GEMMs from 0.0 in ascending k
 *   that skip an exact-zero lhs; dz·Wᵀ skips nothing;
 * - z = (zx + zh) + b, then the gates through fastmath::sigmoid/tanh,
 *   c = (f·c_prev) + (i·g) and h = o·tanh(c);
 * - each parameter-gradient product is finished before it is added to
 *   the gradient, and a bias column sums its rows from a 0.0
 *   accumulator.
 */

#ifndef ADRIAS_TESTS_ML_LSTM_ORACLE_HH
#define ADRIAS_TESTS_ML_LSTM_ORACLE_HH

#include <cstddef>
#include <vector>

#include "ml/fastmath.hh"
#include "ml/lstm.hh"

namespace adrias::ml::oracle
{

/** An Lstm's parameters, copied so a test can step its own copy. */
struct LstmWeights
{
    Matrix wx; ///< (input x 4H), gates [i|f|g|o]
    Matrix wh; ///< (hidden x 4H)
    Matrix b;  ///< (1 x 4H)
};

inline LstmWeights
weightsOf(Lstm &lstm)
{
    const std::vector<Param *> params = lstm.params();
    return {params[0]->value, params[1]->value, params[2]->value};
}

/** One BPTT pass, starting from zero parameter gradients. */
struct LstmGrads
{
    std::vector<Matrix> inputs; ///< dLoss/dX_t for every step
    Matrix wx;
    Matrix wh;
    Matrix b;
};

/** One forward step: its inputs, gates and states, for BPTT. */
struct LstmStep
{
    Matrix x, hPrev, cPrev, gi, gf, gg, go, cell, tanhCell, h;
};

/** Forward from zero state over a time-major sequence. */
inline std::vector<LstmStep>
forwardSteps(const LstmWeights &w, const std::vector<Matrix> &sequence)
{
    const std::size_t hidden = w.wh.rows();
    const std::size_t batch = sequence.front().rows();
    const Matrix zeros(batch, hidden);
    std::vector<LstmStep> steps;
    for (const Matrix &x : sequence) {
        LstmStep s{x, steps.empty() ? zeros : steps.back().h,
                   steps.empty() ? zeros : steps.back().cell,
                   zeros, zeros, zeros, zeros, zeros, zeros, zeros};
        for (std::size_t r = 0; r < batch; ++r) {
            for (std::size_t c = 0; c < hidden; ++c) {
                double z[4];
                for (std::size_t gate = 0; gate < 4; ++gate) {
                    const std::size_t j = gate * hidden + c;
                    double zx = 0.0;
                    for (std::size_t k = 0; k < x.cols(); ++k)
                        if (x.at(r, k) != 0.0)
                            zx += x.at(r, k) * w.wx.at(k, j);
                    double zh = 0.0;
                    for (std::size_t k = 0; k < hidden; ++k)
                        if (s.hPrev.at(r, k) != 0.0)
                            zh += s.hPrev.at(r, k) * w.wh.at(k, j);
                    z[gate] = (zx + zh) + w.b.at(0, j);
                }
                const double gi = fastmath::sigmoid(z[0]);
                const double gf = fastmath::sigmoid(z[1]);
                const double gg = fastmath::tanh(z[2]);
                const double go = fastmath::sigmoid(z[3]);
                const double cell = (gf * s.cPrev.at(r, c)) + (gi * gg);
                const double tanh_cell = fastmath::tanh(cell);
                s.gi.at(r, c) = gi;
                s.gf.at(r, c) = gf;
                s.gg.at(r, c) = gg;
                s.go.at(r, c) = go;
                s.cell.at(r, c) = cell;
                s.tanhCell.at(r, c) = tanh_cell;
                s.h.at(r, c) = go * tanh_cell;
            }
        }
        steps.push_back(std::move(s));
    }
    return steps;
}

/** @return h_t for every step. */
inline std::vector<Matrix>
forward(const LstmWeights &w, const std::vector<Matrix> &sequence)
{
    std::vector<Matrix> outputs;
    for (LstmStep &s : forwardSteps(w, sequence))
        outputs.push_back(std::move(s.h));
    return outputs;
}

/** BPTT through forward(w, sequence) given dLoss/dh_t for every step. */
inline LstmGrads
backward(const LstmWeights &w, const std::vector<Matrix> &sequence,
         const std::vector<Matrix> &grad_hidden)
{
    const std::vector<LstmStep> steps = forwardSteps(w, sequence);
    const std::size_t input = w.wx.rows();
    const std::size_t hidden = w.wh.rows();
    const std::size_t width = 4 * hidden;
    const std::size_t batch = sequence.front().rows();
    LstmGrads g{std::vector<Matrix>(steps.size()), Matrix(input, width),
                Matrix(hidden, width), Matrix(1, width)};
    Matrix dh_next(batch, hidden);
    Matrix dc_next(batch, hidden);
    for (std::size_t t = steps.size(); t-- > 0;) {
        const LstmStep &s = steps[t];
        Matrix dz(batch, width);
        for (std::size_t r = 0; r < batch; ++r) {
            for (std::size_t c = 0; c < hidden; ++c) {
                const double gi = s.gi.at(r, c);
                const double gf = s.gf.at(r, c);
                const double gg = s.gg.at(r, c);
                const double go = s.go.at(r, c);
                const double tc = s.tanhCell.at(r, c);
                const double dh = grad_hidden[t].at(r, c) + dh_next.at(r, c);
                const double dc =
                    ((dh * go) * (1.0 - tc * tc)) + dc_next.at(r, c);
                dc_next.at(r, c) = dc * gf;
                dz.at(r, c) = (dc * gg) * (gi * (1.0 - gi));
                dz.at(r, hidden + c) =
                    (dc * s.cPrev.at(r, c)) * (gf * (1.0 - gf));
                dz.at(r, 2 * hidden + c) = (dc * gi) * (1.0 - gg * gg);
                dz.at(r, 3 * hidden + c) = (dh * tc) * (go * (1.0 - go));
            }
        }
        // Xᵀ·dz and Hᵀ·dz, each element finished before it is added.
        const auto add_product = [&](const Matrix &lhs, Matrix &grad) {
            for (std::size_t i = 0; i < lhs.cols(); ++i) {
                for (std::size_t j = 0; j < width; ++j) {
                    double acc = 0.0;
                    for (std::size_t r = 0; r < batch; ++r)
                        if (lhs.at(r, i) != 0.0)
                            acc += lhs.at(r, i) * dz.at(r, j);
                    grad.at(i, j) += acc;
                }
            }
        };
        add_product(s.x, g.wx);
        add_product(s.hPrev, g.wh);
        for (std::size_t j = 0; j < width; ++j) {
            double acc = 0.0;
            for (std::size_t r = 0; r < batch; ++r)
                acc += dz.at(r, j);
            g.b.at(0, j) += acc;
        }
        // dz·Wᵀ with no term skipped.
        const auto times_transposed = [&](const Matrix &weights) {
            Matrix out(batch, weights.rows());
            for (std::size_t r = 0; r < batch; ++r) {
                for (std::size_t i = 0; i < weights.rows(); ++i) {
                    double acc = 0.0;
                    for (std::size_t k = 0; k < width; ++k)
                        acc += dz.at(r, k) * weights.at(i, k);
                    out.at(r, i) = acc;
                }
            }
            return out;
        };
        g.inputs[t] = times_transposed(w.wx);
        dh_next = times_transposed(w.wh);
    }
    return g;
}

} // namespace adrias::ml::oracle

#endif // ADRIAS_TESTS_ML_LSTM_ORACLE_HH
