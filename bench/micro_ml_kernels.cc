/**
 * @file
 * Micro-benchmarks for the deep-learning kernels: matmul, the two
 * backward GEMMs, LSTM forward in training / inference / reference
 * mode, LSTM train step fused vs reference, head forward at b32 and
 * b64, one head LayerNorm.  Not a paper figure — establishes the
 * substrate's throughput envelope and feeds the perf-regression gate
 * (tools/bench_compare against the checked-in
 * bench/baselines/BENCH_ml.json).
 *
 * The summary block records before/after pairs measured in this run
 * only: fused-vs-reference speedups (the reference path keeps the
 * original matrix-algebra formulation but shares the GEMM and
 * transcendental substrate).
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
using bench::micro::Speedup;

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

/** LSTM forward at the Predictor's shape; mode selects the path. */
Result
benchLstmForward(const std::string &name, std::size_t batch, bool fused,
                 bool inference)
{
    Rng rng(2);
    constexpr std::size_t kHidden = 24;
    constexpr std::size_t kInput = 7;
    constexpr std::size_t kSteps = 12;
    ml::Lstm lstm(kInput, kHidden, rng);
    const auto seq = randomSequence(kSteps, batch, kInput, rng);

    const bool saved_fused = ml::lstmFusedKernels();
    ml::setLstmFusedKernels(fused);
    lstm.setInference(inference);
    auto result = bench::micro::measure(
        name, [&] { lstm.forwardSequence(seq); });
    ml::setLstmFusedKernels(saved_fused);
    return result;
}

/** Full forward + backward train step, fused or reference kernels. */
Result
benchLstmTrainStep(const std::string &name, bool fused)
{
    Rng rng(3);
    constexpr std::size_t kHidden = 24;
    constexpr std::size_t kBatch = 32;
    ml::Lstm lstm(7, kHidden, rng);
    const auto seq = randomSequence(12, kBatch, 7, rng);
    const ml::Matrix target = randomMatrix(kBatch, kHidden, rng);

    const bool saved_fused = ml::lstmFusedKernels();
    ml::setLstmFusedKernels(fused);
    auto result = bench::micro::measure(name, [&] {
        const auto out = lstm.forwardSequence(seq);
        std::vector<ml::Matrix> grads(seq.size(),
                                      ml::Matrix(kBatch, kHidden));
        ml::mseLoss(out.back(), target, &grads.back());
        lstm.backwardSequence(grads);
        for (ml::Param *p : lstm.params())
            p->grad = ml::Matrix(p->grad.rows(), p->grad.cols());
    });
    ml::setLstmFusedKernels(saved_fused);
    return result;
}

/** Backward pass alone over one cached b32 forward (fused kernels). */
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

    results.push_back(benchLstmForward("lstm_forward_train_h24_b32", 32,
                                       true, false));
    results.push_back(benchLstmForward("lstm_forward_infer_h24_b32", 32,
                                       true, true));
    results.push_back(benchLstmForward("lstm_forward_reference_h24_b32",
                                       32, false, false));
    results.push_back(
        benchLstmForward("lstm_forward_infer_h24_b1", 1, true, true));
    results.push_back(benchLstmForward("lstm_forward_reference_h24_b1",
                                       1, false, false));

    results.push_back(
        benchLstmTrainStep("lstm_train_step_h24_b32", true));
    results.push_back(
        benchLstmTrainStep("lstm_train_step_reference_h24_b32", false));
    results.push_back(benchLstmBackward());
    results.push_back(benchGemmDzWt());
    results.push_back(benchGemmXtDz());

    results.push_back(benchHeadForward("head_forward_b32", 32));
    results.push_back(benchHeadForward("head_forward_b64", 64));
    results.push_back(benchLayerNormForward());

    auto median = [&](const std::string &name) {
        for (const Result &r : results)
            if (r.name == name)
                return r.medianNs;
        return 0.0;
    };

    // Live A/B: reference keeps the original matrix-algebra
    // formulation, fused is the workspace kernel path; both share the
    // upgraded GEMM and fastmath substrate, so these pairs isolate the
    // fusion/fast-path gain alone.
    std::vector<Speedup> summary{
        {"lstm_forward_inference_b32",
         median("lstm_forward_reference_h24_b32"),
         median("lstm_forward_infer_h24_b32")},
        {"lstm_forward_inference_b1",
         median("lstm_forward_reference_h24_b1"),
         median("lstm_forward_infer_h24_b1")},
        {"lstm_train_step_b32",
         median("lstm_train_step_reference_h24_b32"),
         median("lstm_train_step_h24_b32")},
    };

    bench::micro::printResults("ml_kernels", results, summary);
    const std::string path = bench::micro::jsonPath("BENCH_ml.json");
    bench::micro::writeJson(path, "ml_kernels", results, summary);
    std::cout << "JSON written to " << path << "\n";
    return 0;
}
