/**
 * @file
 * Micro-benchmarks for the deep-learning kernels: matmul, the two
 * backward GEMMs, LSTM forward in training and inference mode, the
 * LSTM train step and backward pass, head forward at b32 and b64, one
 * head LayerNorm.  Not a paper figure — establishes the substrate's
 * throughput envelope and feeds the perf-regression gate
 * (tools/bench_compare against the checked-in
 * bench/baselines/BENCH_ml.json).
 */

#include <vector>

#include "bench/microbench.hh"
#include "common/rng.hh"
#include "ml/layernorm.hh"
#include "ml/loss.hh"
#include "ml/lstm.hh"
#include "ml/sequential.hh"

namespace
{

using namespace adrias;
using bench::micro::Result;

ml::Matrix
randomMatrix(std::size_t rows, std::size_t cols, Rng &rng)
{
    ml::Matrix m(rows, cols);
    for (double &x : m.raw())
        x = rng.gaussian();
    return m;
}

std::vector<ml::Matrix>
randomSequence(std::size_t steps, std::size_t batch, std::size_t cols,
               Rng &rng)
{
    std::vector<ml::Matrix> seq;
    seq.reserve(steps);
    for (std::size_t t = 0; t < steps; ++t)
        seq.push_back(randomMatrix(batch, cols, rng));
    return seq;
}

Result
benchMatmul(std::size_t n)
{
    Rng rng(1);
    const ml::Matrix a = randomMatrix(n, n, rng);
    const ml::Matrix b = randomMatrix(n, n, rng);
    ml::Matrix out;
    return bench::micro::measure("matmul_" + std::to_string(n),
                                 [&] { a.matmulInto(b, out); });
}

/**
 * The two backward GEMMs at the Predictor's LSTM training shape (b32,
 * H = 24, packed gate width 4H = 96): dz * W^T (the input and
 * recurrent gradients, as the LSTM runs them per step: over the W^T it
 * keeps for the whole sequence) and X^T * dz (the weight gradients).
 */
Result
benchGemmDzWt()
{
    Rng rng(6);
    const ml::Matrix dz = randomMatrix(32, 96, rng);
    const ml::Matrix w_t = randomMatrix(24, 96, rng).transposed();
    ml::Matrix out;
    return bench::micro::measure("gemm_dz_wt_b32_h24",
                                 [&] { dz.matmulNoSkipInto(w_t, out); });
}

Result
benchGemmXtDz()
{
    Rng rng(7);
    const ml::Matrix x = randomMatrix(32, 24, rng);
    const ml::Matrix dz = randomMatrix(32, 96, rng);
    ml::Matrix out;
    return bench::micro::measure("gemm_xt_dz_b32_h24",
                                 [&] { x.transposedMatmulInto(dz, out); });
}

/** LSTM forward at the Predictor's shape, training or inference. */
Result
benchLstmForward(const std::string &name, std::size_t batch, bool inference)
{
    Rng rng(2);
    constexpr std::size_t kHidden = 24;
    constexpr std::size_t kInput = 7;
    constexpr std::size_t kSteps = 12;
    ml::Lstm lstm(kInput, kHidden, rng);
    const auto seq = randomSequence(kSteps, batch, kInput, rng);

    lstm.setInference(inference);
    return bench::micro::measure(name,
                                 [&] { lstm.forwardSequence(seq); });
}

/** Full forward + backward train step. */
Result
benchLstmTrainStep()
{
    Rng rng(3);
    constexpr std::size_t kHidden = 24;
    constexpr std::size_t kBatch = 32;
    ml::Lstm lstm(7, kHidden, rng);
    const auto seq = randomSequence(12, kBatch, 7, rng);
    const ml::Matrix target = randomMatrix(kBatch, kHidden, rng);

    return bench::micro::measure("lstm_train_step_h24_b32", [&] {
        const auto out = lstm.forwardSequence(seq);
        std::vector<ml::Matrix> grads(seq.size(),
                                      ml::Matrix(kBatch, kHidden));
        ml::mseLoss(out.back(), target, &grads.back());
        lstm.backwardSequence(grads);
        for (ml::Param *p : lstm.params())
            p->grad = ml::Matrix(p->grad.rows(), p->grad.cols());
    });
}

/** Backward pass alone over one cached b32 forward. */
Result
benchLstmBackward()
{
    Rng rng(3);
    constexpr std::size_t kHidden = 24;
    constexpr std::size_t kBatch = 32;
    ml::Lstm lstm(7, kHidden, rng);
    const auto seq = randomSequence(12, kBatch, 7, rng);
    const auto grads = randomSequence(12, kBatch, kHidden, rng);
    lstm.forwardSequence(seq);
    // Parameter gradients accumulate across repetitions; the step
    // caches stay valid, so every repetition runs the same backward.
    return bench::micro::measure("lstm_backward_h24_b32",
                                 [&] { lstm.backwardSequence(grads); });
}

/** The performance model's head (56 -> 32 -> 32 -> 32 -> 1, layer
 *  norm) in inference mode over one batch of `batch` rows. */
Result
benchHeadForward(const std::string &name, std::size_t batch)
{
    Rng rng(4);
    auto head = ml::makeNonLinearHead(56, 32, 1, 0.0, rng,
                                      ml::HeadNorm::Layer);
    head->setTraining(false);
    head->setInference(true);
    const ml::Matrix input = randomMatrix(batch, 56, rng);
    return bench::micro::measure(name, [&] { head->forward(input); });
}

/** One of the head's LayerNorms in inference mode. */
Result
benchLayerNormForward()
{
    Rng rng(5);
    ml::LayerNorm norm(32);
    norm.setTraining(false);
    norm.setInference(true);
    const ml::Matrix input = randomMatrix(64, 32, rng);
    return bench::micro::measure("layernorm_forward_b64_w32",
                                 [&] { norm.forward(input); });
}

} // namespace

int
main()
{
    std::vector<bench::micro::Result> results;
    results.push_back(benchMatmul(64));
    results.push_back(benchMatmul(128));
    results.push_back(benchMatmul(384));

    results.push_back(
        benchLstmForward("lstm_forward_train_h24_b32", 32, false));
    results.push_back(
        benchLstmForward("lstm_forward_infer_h24_b32", 32, true));
    results.push_back(
        benchLstmForward("lstm_forward_infer_h24_b1", 1, true));

    results.push_back(benchLstmTrainStep());
    results.push_back(benchLstmBackward());
    results.push_back(benchGemmDzWt());
    results.push_back(benchGemmXtDz());

    results.push_back(benchHeadForward("head_forward_b32", 32));
    results.push_back(benchHeadForward("head_forward_b64", 64));
    results.push_back(benchLayerNormForward());

    bench::micro::printResults("ml_kernels", results);
    const std::string path = bench::micro::jsonPath("BENCH_ml.json");
    bench::micro::writeJson(path, "ml_kernels", results);
    std::cout << "JSON written to " << path << "\n";
    return 0;
}
