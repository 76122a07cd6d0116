/**
 * @file
 * Micro-benchmarks for the deep-learning kernels: matmul (scalar and
 * vector tier), LSTM forward in training / inference / reference
 * mode, LSTM train step fused vs reference, head forward.  Not a paper
 * figure — establishes the substrate's throughput envelope and feeds
 * the perf-regression gate (tools/bench_compare against the checked-in
 * bench/baselines/BENCH_ml.json).
 *
 * The summary block records two kinds of before/after pairs: live
 * fused-vs-reference speedups measured in this run (the reference path
 * keeps the original matrix-algebra formulation but shares the
 * upgraded GEMM/transcendental substrate), and *_vs_prepr entries
 * whose before_ns is pinned to the medians recorded at the
 * pre-optimization commit on the recording machine (DESIGN.md §11) —
 * the honest end-to-end record for the perf acceptance bars.
 */

#include <vector>

#include "bench/microbench.hh"
#include "common/rng.hh"
#include "ml/fastmath.hh"
#include "ml/loss.hh"
#include "ml/lstm.hh"
#include "ml/sequential.hh"
#include "ml/simd.hh"

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
benchMatmul(std::size_t n, ml::KernelTier tier = ml::KernelTier::Scalar)
{
    Rng rng(1);
    const ml::Matrix a = randomMatrix(n, n, rng);
    const ml::Matrix b = randomMatrix(n, n, rng);
    const ml::ScopedKernelTier tier_pin(tier);
    ml::Matrix out;
    return bench::micro::measure(
        "matmul_" + std::to_string(n) +
            (tier == ml::KernelTier::Vector ? "_vector" : ""),
        [&] { a.matmulInto(b, out); });
}

/** Batch transcendental throughput: one tanh sweep over n doubles. */
Result
benchTanhBatch(std::size_t n, ml::KernelTier tier)
{
    Rng rng(5);
    std::vector<double> x(n);
    std::vector<double> out(n);
    for (double &v : x)
        v = rng.gaussian() * 4.0;
    // The simd:: entry points are vector-only: the scalar row (and the
    // vector row on a host without the tier) sweeps fastmath::tanh.
    const bool vector =
        tier == ml::KernelTier::Vector && ml::vectorTierAvailable();
    return bench::micro::measure(
        "tanh_batch_" + std::to_string(n) +
            (tier == ml::KernelTier::Vector ? "_vector" : ""),
        [&] {
            if (vector) {
                ml::simd::tanhBatch(x.data(), out.data(), n);
                return;
            }
            for (std::size_t i = 0; i < n; ++i)
                out[i] = ml::fastmath::tanh(x[i]);
        });
}

/** LSTM forward at the Predictor's shape; mode selects the path. */
Result
benchLstmForward(const std::string &name, std::size_t batch, bool fused,
                 bool inference,
                 ml::KernelTier tier = ml::KernelTier::Scalar)
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
    const ml::ScopedKernelTier tier_pin(tier);
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

Result
benchHeadForward()
{
    Rng rng(4);
    auto head = ml::makeNonLinearHead(56, 32, 1, 0.0, rng,
                                      ml::HeadNorm::Layer);
    head->setTraining(false);
    head->setInference(true);
    const ml::Matrix input = randomMatrix(32, 56, rng);
    return bench::micro::measure("head_forward_b32",
                                 [&] { head->forward(input); });
}

} // namespace

int
main()
{
    std::vector<bench::micro::Result> results;
    results.push_back(benchMatmul(64));
    results.push_back(benchMatmul(128));
    results.push_back(benchMatmul(384));

    // Vector-tier rows are always emitted so the regression gate can
    // compare against the baseline on any machine: when AVX2 is
    // unavailable (or -DADRIAS_SIMD=OFF), the tier falls back to the
    // scalar kernels and the rows simply mirror their scalar twins.
    results.push_back(benchMatmul(384, ml::KernelTier::Vector));
    results.push_back(
        benchTanhBatch(8192, ml::KernelTier::Scalar));
    results.push_back(
        benchTanhBatch(8192, ml::KernelTier::Vector));

    results.push_back(benchLstmForward("lstm_forward_train_h24_b32", 32,
                                       true, false));
    results.push_back(benchLstmForward("lstm_forward_infer_h24_b32", 32,
                                       true, true));
    results.push_back(
        benchLstmForward("lstm_forward_infer_h24_b32_vector", 32, true,
                         true, ml::KernelTier::Vector));
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

    results.push_back(benchHeadForward());

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
        // Vector tier vs the fused scalar path on the same build and
        // run — the perf acceptance bars for the SIMD tier (DESIGN.md
        // §16).  On machines without AVX2 these report ~1.0×.
        {"matmul_384_vector_vs_scalar", median("matmul_384"),
         median("matmul_384_vector")},
        {"lstm_forward_infer_b32_vector_vs_scalar",
         median("lstm_forward_infer_h24_b32"),
         median("lstm_forward_infer_h24_b32_vector")},
        {"tanh_batch_8192_vector_vs_scalar", median("tanh_batch_8192"),
         median("tanh_batch_8192_vector")},
    };

    // End-to-end before/after vs the pre-optimization commit: before_ns
    // is the median recorded on the recording machine before any of
    // the GEMM / fastmath / fusion work landed (DESIGN.md §11).  Only
    // meaningful when the after side runs on the same machine; the
    // regression gate uses the benchmarks block, not these.
    summary.push_back({"lstm_forward_inference_b32_vs_prepr", 1450966.0,
                       median("lstm_forward_infer_h24_b32")});
    summary.push_back({"lstm_forward_inference_b1_vs_prepr", 45108.0,
                       median("lstm_forward_infer_h24_b1")});
    summary.push_back({"lstm_train_step_b32_vs_prepr", 2910104.0,
                       median("lstm_train_step_h24_b32")});
    summary.push_back({"matmul_384_vs_prepr", 50177152.5,
                       median("matmul_384")});

    bench::micro::printResults("ml_kernels", results, summary);
    const std::string path = bench::micro::jsonPath("BENCH_ml.json");
    bench::micro::writeJson(path, "ml_kernels", results, summary);
    std::cout << "JSON written to " << path << "\n";
    return 0;
}
