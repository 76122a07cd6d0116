#include "models/encoding_memo.hh"

#include <algorithm>
#include <cstring>
#include <string_view>
#include <utility>

#include "common/logging.hh"
#include "obs/obs.hh"

namespace adrias::models
{

namespace
{

/** The bytes of one step's doubles. */
std::string_view
bytesOf(const ml::Matrix &step)
{
    return {reinterpret_cast<const char *>(step.raw().data()),
            step.size() * sizeof(double)};
}

std::size_t
hashSteps(const EncodingMemo::Sequence &sequence)
{
    std::size_t hash = sequence.size();
    for (const ml::Matrix &step : sequence)
        hash = hash * 1099511628211u ^ std::hash<std::string_view>{}(
                                           bytesOf(step));
    return hash;
}

} // namespace

EncodingMemo::EncodingMemo(std::string counters, std::size_t width_)
    : counterPrefix(std::move(counters)), width(width_)
{
}

bool
EncodingMemo::Entry::matches(const Sequence &sequence) const
{
    // Bitwise: +0.0 and -0.0 differ, equal NaN payloads match.
    if (sequence.size() != steps || sequence.front().size() != stepWidth)
        return false;
    const double *stored = raw.data();
    for (const ml::Matrix &step : sequence) {
        if (step.size() != stepWidth ||
            std::memcmp(stored, step.raw().data(),
                        stepWidth * sizeof(double)) != 0)
            return false;
        stored += stepWidth;
    }
    return true;
}

ml::Matrix
EncodingMemo::rows(const std::vector<const Sequence *> &sequences,
                   const Encoder &encode)
{
    // Repeated pointers (one epoch window per shard, one store entry
    // per app) are looked up once; a call holds a handful of them.
    std::vector<const Sequence *> distinct;
    std::vector<std::size_t> slot(sequences.size());
    for (std::size_t b = 0; b < sequences.size(); ++b) {
        const auto it =
            std::find(distinct.begin(), distinct.end(), sequences[b]);
        slot[b] = static_cast<std::size_t>(it - distinct.begin());
        if (it == distinct.end())
            distinct.push_back(sequences[b]);
    }

    ml::Matrix codes(distinct.size(), width);
    const auto codeRow = [&codes, this](std::size_t d) {
        return codes.raw().begin() + static_cast<std::ptrdiff_t>(d * width);
    };
    std::vector<const Sequence *> missed;
    std::vector<std::size_t> missed_hash, missed_slot;
    for (std::size_t d = 0; d < distinct.size(); ++d) {
        const std::size_t hash = hashSteps(*distinct[d]);
        const Entry *cached = nullptr;
        const auto [first, last] = entries.equal_range(hash);
        for (auto it = first; it != last && cached == nullptr; ++it)
            if (it->second.matches(*distinct[d]))
                cached = &it->second;
        if (cached != nullptr) {
            std::copy(cached->row.begin(), cached->row.end(), codeRow(d));
            continue;
        }
        missed.push_back(distinct[d]);
        missed_hash.push_back(hash);
        missed_slot.push_back(d);
    }
    count(distinct.size() - missed.size(), missed.size());

    if (!missed.empty()) {
        const ml::Matrix encoded = encode(missed);
        if (encoded.rows() != missed.size() || encoded.cols() != width)
            panic("EncodingMemo: encoder returned the wrong shape");
        for (std::size_t m = 0; m < missed.size(); ++m) {
            const Sequence &sequence = *missed[m];
            const auto row = encoded.raw().begin() +
                             static_cast<std::ptrdiff_t>(m * width);
            const auto end = row + static_cast<std::ptrdiff_t>(width);
            std::copy(row, end, codeRow(missed_slot[m]));
            Entry entry{sequence.size(), sequence.front().size(), {},
                        {row, end}};
            entry.raw.reserve(entry.steps * entry.stepWidth);
            for (const ml::Matrix &step : sequence)
                entry.raw.insert(entry.raw.end(), step.raw().begin(),
                                 step.raw().end());
            if (entries.size() >= kCapacity)
                entries.clear();
            entries.emplace(missed_hash[m], std::move(entry));
        }
    }

    if (distinct.size() == sequences.size())
        return codes;
    ml::Matrix gathered(sequences.size(), width);
    for (std::size_t b = 0; b < sequences.size(); ++b)
        std::copy_n(codeRow(slot[b]), width,
                    gathered.raw().begin() +
                        static_cast<std::ptrdiff_t>(b * width));
    return gathered;
}

void
EncodingMemo::count([[maybe_unused]] std::size_t hits,
                    [[maybe_unused]] std::size_t misses)
{
#if ADRIAS_OBS_ENABLED
    if (!obs::enabled())
        return;
    if (hitCount == nullptr) {
        obs::MetricsRegistry &reg = obs::MetricsRegistry::global();
        hitCount = &reg.counter(counterPrefix + ".hits");
        missCount = &reg.counter(counterPrefix + ".misses");
    }
    hitCount->add(hits);
    missCount->add(misses);
#endif
}

} // namespace adrias::models
