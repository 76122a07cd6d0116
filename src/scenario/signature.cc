#include "scenario/signature.hh"

#include "common/logging.hh"
#include "common/threadpool.hh"
#include "ml/serialize.hh"
#include "scenario/runner.hh"
#include "telemetry/watcher.hh"
#include "testbed/testbed.hh"
#include "workloads/workload.hh"

namespace adrias::scenario
{

bool
SignatureStore::has(const std::string &name) const
{
    return signatures.count(name) > 0;
}

const std::vector<ml::Matrix> &
SignatureStore::get(const std::string &name) const
{
    auto it = signatures.find(name);
    if (it == signatures.end())
        fatal("SignatureStore: no signature for '" + name + "'");
    return it->second;
}

void
SignatureStore::put(const std::string &name,
                    std::vector<ml::Matrix> signature)
{
    if (signature.empty())
        fatal("SignatureStore: refusing to store empty signature");
    signatures[name] = std::move(signature);
}

void
SignatureStore::erase(const std::string &name)
{
    signatures.erase(name);
}

std::vector<std::string>
SignatureStore::names() const
{
    std::vector<std::string> all;
    all.reserve(signatures.size());
    for (const auto &[name, signature] : signatures)
        all.push_back(name);
    return all;
}

void
SignatureStore::saveState(io::BinaryWriter &out) const
{
    out.writeU64(signatures.size());
    for (const auto &[name, signature] : signatures) {
        out.writeString(name);
        ml::saveMatrixSequence(out, signature);
    }
}

Result<void>
SignatureStore::restoreState(io::BinaryReader &in)
{
    std::map<std::string, std::vector<ml::Matrix>> restored;
    const std::uint64_t count = in.readU64();
    for (std::uint64_t i = 0; i < count && in.ok(); ++i) {
        const std::string name = in.readString();
        Result<std::vector<ml::Matrix>> signature =
            ml::loadMatrixSequence(in);
        if (!signature)
            return signature.error();
        restored.emplace(name, std::move(signature.value()));
    }
    if (!in.ok())
        return makeError(ErrorCode::Truncated,
                         "SignatureStore: truncated snapshot section");
    signatures = std::move(restored);
    return {};
}

std::vector<ml::Matrix>
collectSignature(const workloads::WorkloadSpec &spec,
                 testbed::TestbedParams params, std::uint64_t seed,
                 SimTime max_seconds)
{
    testbed::Testbed bed(params, seed);
    bed.setNoise(0.0); // signatures are design-time, measured cleanly
    workloads::WorkloadInstance app(1, spec, MemoryMode::Remote, 0, seed);

    std::vector<testbed::CounterSample> trace;
    SimTime now = 0;
    while (!app.finished() && now < max_seconds) {
        const auto tick = bed.tick({app.load()});
        trace.push_back(tick.counters);
        app.advance(tick.outcomes.at(0), ++now);
    }
    if (trace.empty())
        panic("collectSignature produced an empty trace");
    return telemetry::binSpan(trace, 0, trace.size(),
                              ScenarioRunner::kWindowBins);
}

void
collectAllSignatures(SignatureStore &store, testbed::TestbedParams params,
                     std::uint64_t seed)
{
    // Each benchmark's design-time run is independent: collect into
    // per-spec slots in parallel, then fill the store in the original
    // catalogue order so its contents never depend on timing.
    std::vector<const workloads::WorkloadSpec *> specs;
    for (const auto &spec : workloads::sparkBenchmarks())
        specs.push_back(&spec);
    for (const auto &spec : workloads::latencyCriticalBenchmarks())
        specs.push_back(&spec);

    std::vector<std::vector<ml::Matrix>> signatures(specs.size());
    ThreadPool::global().parallelForEach(
        specs.size(), [&](std::size_t i) {
            signatures[i] = collectSignature(*specs[i], params, seed);
        });
    for (std::size_t i = 0; i < specs.size(); ++i)
        store.put(specs[i]->name, std::move(signatures[i]));
}

} // namespace adrias::scenario
