// Analyzer fixture: determinism-clean counterparts of
// bad_determinism.cc.  Never compiled — parsed by tools/analyze
// self-tests.

#include "common/csv.hh"
#include "common/io/binary.hh"
#include "common/threadpool.hh"

namespace adrias::fixture
{

/** Sorted view before writing: must NOT be flagged. */
void
dumpIndex(io::BinaryWriter &out,
          const std::unordered_map<std::string, int> &index)
{
    std::vector<std::pair<std::string, int>> sorted(index.begin(),
                                                    index.end());
    std::sort(sorted.begin(), sorted.end());
    for (const auto &entry : sorted)
        out.writeU64(static_cast<std::uint64_t>(entry.second));
}

/** Unordered iteration with no reproducible sink: must NOT be
 *  flagged (a live tally never hits disk). */
int
countLive(const std::unordered_map<std::string, int> &index)
{
    int live = 0;
    for (const auto &entry : index) {
        if (entry.second > 0)
            ++live;
    }
    return live;
}

/** The blessed reduction: chunk-local accumulator, per-chunk slot,
 *  combination in chunk index order after the join. */
double
meanLatency(ThreadPool &pool, const std::vector<double> &samples)
{
    std::vector<double> partials(pool.threadCount(), 0.0);
    pool.parallelFor(samples.size(),
                     [&](std::size_t chunk, std::size_t begin,
                         std::size_t end) {
                         double local = 0.0;
                         for (std::size_t i = begin; i < end; ++i)
                             local += samples[i];
                         partials[chunk] += local;
                     });
    double total = 0.0;
    for (double partial : partials)
        total += partial;
    return total / static_cast<double>(samples.size());
}

} // namespace adrias::fixture
