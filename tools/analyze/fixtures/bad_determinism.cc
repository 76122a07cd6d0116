// Analyzer fixture: determinism-hazard violations.  Never compiled —
// parsed by tools/analyze self-tests.

#include "common/csv.hh"
#include "common/io/binary.hh"
#include "common/threadpool.hh"

namespace adrias::fixture
{

struct Node;

/** Unordered iteration feeding a BinaryWriter: must be flagged. */
void
dumpIndex(io::BinaryWriter &out,
          const std::unordered_map<std::string, int> &index)
{
    for (const auto &entry : index)
        out.writeU64(static_cast<std::uint64_t>(entry.second));
}

/** Pointer-keyed map feeding a CsvWriter: must be flagged. */
void
exportEdges(CsvWriter &writer, const std::map<Node *, int> &edges)
{
    for (const auto &edge : edges)
        writer.writeRow({std::to_string(edge.second)});
}

/** Cross-chunk float accumulation: must be flagged. */
double
meanLatency(ThreadPool &pool, const std::vector<double> &samples)
{
    double total = 0.0;
    pool.parallelFor(samples.size(),
                     [&](std::size_t begin, std::size_t end) {
                         for (std::size_t i = begin; i < end; ++i)
                             total += samples[i];
                     });
    return total / static_cast<double>(samples.size());
}

/** The same accumulation through parallelForEach: must be flagged. */
double
totalEnergy(ThreadPool &pool, const std::vector<double> &samples)
{
    double energy = 0.0;
    pool.parallelForEach(samples.size(),
                         [&](std::size_t i) { energy += samples[i]; });
    return energy;
}

} // namespace adrias::fixture
