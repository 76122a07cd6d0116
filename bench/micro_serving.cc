/**
 * @file
 * micro — decision-serving throughput (DESIGN.md §15): sustained
 * decisions/sec and wall-clock p99 decision latency of the
 * DecisionService at ≥1000 concurrent placement requests, batched
 * (b32, the fused inference fast-path) versus inline (b1, one forward
 * per request).  Feeds the perf-regression gate (tools/bench_compare
 * against bench/baselines/BENCH_serving.json).
 *
 * Scale knobs: ADRIAS_BENCH_REQUESTS (default 1024 — the "≥1000
 * concurrent apps" load), ADRIAS_BENCH_SCENARIOS / _DURATION /
 * _EPOCHS shrink the offline training for CI smoke.
 */

#include <chrono>
#include <memory>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/microbench.hh"
#include "common/logging.hh"
#include "core/adrias.hh"
#include "ml/simd.hh"
#include "serving/decision_service.hh"
#include "stats/percentile.hh"
#include "telemetry/watcher.hh"
#include "testbed/testbed.hh"
#include "workloads/spec.hh"

namespace
{

using namespace adrias;
using bench::micro::envCount;

constexpr std::size_t kShards = 4;

std::vector<serving::PlacementRequest>
buildTrace(const scenario::SignatureStore &signatures,
           std::size_t count)
{
    // Known apps only: every request takes the model path, so the
    // bench measures inference serving, not the bootstrap shortcut.
    std::vector<const workloads::WorkloadSpec *> apps;
    for (const auto &spec : workloads::sparkBenchmarks())
        if (signatures.has(spec.name))
            apps.push_back(&spec);
    for (const auto *lc : {&workloads::redisSpec(),
                           &workloads::memcachedSpec()})
        if (signatures.has(lc->name))
            apps.push_back(lc);
    if (apps.empty())
        fatal("micro_serving: no signatures for any workload");

    std::vector<serving::PlacementRequest> trace;
    trace.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        const workloads::WorkloadSpec &spec = *apps[i % apps.size()];
        serving::PlacementRequest request;
        request.id = static_cast<DeploymentId>(i);
        request.app = spec.name;
        request.cls = spec.cls;
        request.shard = i % kShards;
        request.submitted = 0;
        request.deadline = 8;
        trace.push_back(std::move(request));
    }
    return trace;
}

} // namespace

int
main()
{
    // Offline phase: a small but real trained stack.
    core::AdriasStack::BuildOptions options;
    options.scenarios = envCount("ADRIAS_BENCH_SCENARIOS", 3);
    options.scenarioDurationSec = static_cast<SimTime>(
        envCount("ADRIAS_BENCH_DURATION", 1500));
    options.seed = envCount("ADRIAS_BENCH_SEED", 700);
    options.model.epochs = envCount("ADRIAS_BENCH_EPOCHS", 18);
    options.model.hidden = 16;
    options.model.headWidth = 24;
    core::AdriasStack stack(options);

    // Warm telemetry shared by every shard.
    telemetry::Watcher watcher(300);
    testbed::Testbed bed;
    bed.setNoise(0.0);
    for (int i = 0; i < 200; ++i)
        watcher.record(bed.tick({}).counters);
    const std::vector<ml::Matrix> window = watcher.binnedWindow(
        scenario::ScenarioRunner::kWindowSec,
        scenario::ScenarioRunner::kWindowBins);

    const std::size_t requests = envCount("ADRIAS_BENCH_REQUESTS", 1024);
    const std::vector<serving::PlacementRequest> trace =
        buildTrace(stack.signatures(), requests);

    const auto makeService = [&](std::size_t batch_size) {
        serving::DecisionServiceConfig config;
        config.shards = kShards;
        config.queueCapacity = requests;
        config.batchSize = batch_size;
        auto service = std::make_unique<serving::DecisionService>(
            stack.predictor(), stack.signatures(),
            core::AdriasConfig{}, config);
        serving::EpochSnapshot snapshot;
        snapshot.shardWindows.assign(kShards, window);
        service->beginEpoch(std::move(snapshot));
        return service;
    };

    const auto serveAll =
        [&](std::size_t batch_size,
            ml::KernelTier tier = ml::KernelTier::Scalar) {
            const ml::ScopedKernelTier tier_pin(tier);
            const auto service = makeService(batch_size);
            for (const auto &request : trace)
                if (!service->submit(request))
                    fatal("micro_serving: unexpected back-pressure");
            const auto decisions = service->drain(0);
            if (decisions.size() != trace.size())
                fatal("micro_serving: lost decisions");
        };

    // This bench moves thousands of LSTM forwards per iteration, so a
    // smaller default sample than the harness-wide 30 keeps the smoke
    // run quick; override with ADRIAS_BENCH_ITERS as usual.
    const std::size_t iters = envCount("ADRIAS_BENCH_ITERS", 10);
    const std::size_t warmup = envCount("ADRIAS_BENCH_WARMUP", 2);

    std::vector<bench::micro::Result> results;
    results.push_back(bench::micro::measure(
        "serve_decisions_b32", [&] { serveAll(32); }, iters,
        warmup));
    results.push_back(bench::micro::measure(
        "serve_decisions_inline", [&] { serveAll(1); }, iters,
        warmup));
    // Vector tier pinned around the whole serve — always emitted so the
    // regression gate finds the row; without AVX2 the tier degrades to
    // scalar and the row mirrors b32.
    results.push_back(bench::micro::measure(
        "serve_decisions_b32_vector",
        [&] { serveAll(32, ml::KernelTier::Vector); }, iters,
        warmup));

    // Wall-clock per-decision latency under b32: feed the daemon in
    // batch-sized waves and charge every decision in a wave the wall
    // time of the drain that decided it.
    {
        using Clock = std::chrono::steady_clock;
        const ml::ScopedKernelTier scalar_pin(ml::KernelTier::Scalar);
        const auto service = makeService(32);
        std::vector<double> latencies_ns;
        latencies_ns.reserve(trace.size());
        for (std::size_t begin = 0; begin < trace.size(); begin += 32) {
            const std::size_t end = std::min(trace.size(), begin + 32);
            for (std::size_t i = begin; i < end; ++i)
                if (!service->submit(trace[i]))
                    fatal("micro_serving: unexpected back-pressure");
            const auto start = Clock::now();
            const auto decisions = service->drain(0);
            const auto stop = Clock::now();
            const double wave_ns =
                std::chrono::duration<double, std::nano>(stop - start)
                    .count();
            for (std::size_t i = 0; i < decisions.size(); ++i)
                latencies_ns.push_back(wave_ns);
        }
        if (latencies_ns.size() != trace.size())
            fatal("micro_serving: lost decisions in latency sweep");
        bench::micro::Result p99;
        p99.name = "decision_latency_p99_b32";
        p99.medianNs = stats::quantile(latencies_ns, 0.99);
        p99.minNs = stats::quantile(latencies_ns, 0.0);
        double total = 0.0;
        for (double sample : latencies_ns)
            total += sample;
        p99.meanNs = total / static_cast<double>(latencies_ns.size());
        p99.iterations = latencies_ns.size();
        results.push_back(p99);
    }

    const double batched_ns = results[0].medianNs;
    const double inline_ns = results[1].medianNs;
    const double vector_ns = results[2].medianNs;
    std::vector<bench::micro::Speedup> summary;
    summary.push_back({"batched_vs_inline", inline_ns, batched_ns});
    summary.push_back({"b32_vector_vs_scalar", batched_ns, vector_ns});

    bench::micro::printResults("serving", results, summary);
    const double batched_dps =
        static_cast<double>(requests) / (batched_ns * 1e-9);
    const double inline_dps =
        static_cast<double>(requests) / (inline_ns * 1e-9);
    const double vector_dps =
        static_cast<double>(requests) / (vector_ns * 1e-9);
    std::printf("  %-36s %12.0f decisions/s\n", "throughput_b32",
                batched_dps);
    std::printf("  %-36s %12.0f decisions/s\n", "throughput_inline",
                inline_dps);
    std::printf("  %-36s %12.0f decisions/s\n", "throughput_b32_vector",
                vector_dps);
    std::printf("  %-36s %12.2f ms\n", "decision_p99_b32",
                results[3].medianNs * 1e-6);

    bench::micro::writeJson(bench::micro::jsonPath("BENCH_serving.json"),
                            "serving", results, summary);
    return 0;
}
