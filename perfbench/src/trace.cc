#include "trace.hh"

#include <algorithm>
#include <map>

namespace perfbench
{

Tracer &
Tracer::global()
{
    static Tracer tracer;
    return tracer;
}

void
Tracer::enable(std::size_t capacity)
{
    owner = std::this_thread::get_id();
    spans.clear();
    spans.reserve(capacity);
    stack.clear();
    droppedSpans = 0;
    on = true;
}

std::int64_t
Tracer::open(const char *name)
{
    // A full buffer drops the span but never reallocates mid-run, so
    // recording cost stays flat; dropped() reports the loss.
    if (spans.size() == spans.capacity()) {
        ++droppedSpans;
        return -1;
    }
    Span span;
    span.name = name;
    span.parent = stack.empty() ? -1 : stack.back();
    const auto index = static_cast<std::int64_t>(spans.size());
    spans.push_back(span);
    stack.push_back(index);
    spans.back().start = now();
    return index;
}

void
Tracer::close(std::int64_t index)
{
    const double end = now();
    spans[static_cast<std::size_t>(index)].end = end;
    stack.pop_back();
}

std::vector<std::pair<std::string, double>>
Tracer::selfTimes() const
{
    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
        self[i] = spans[i].end - spans[i].start;
    for (const Span &span : spans)
        if (span.parent >= 0)
            self[static_cast<std::size_t>(span.parent)] -=
                span.end - span.start;

    std::vector<std::pair<std::string, double>> rows;
    std::map<std::string, std::size_t> row_of;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const auto [it, fresh] = row_of.emplace(spans[i].name, rows.size());
        if (fresh)
            rows.emplace_back(spans[i].name, 0.0);
        rows[it->second].second += self[i];
    }
    return rows;
}

namespace
{

/** Start times of the chunks open on this thread (chunks can nest). */
std::vector<double> &
chunkStarts()
{
    static thread_local std::vector<double> starts;
    return starts;
}

} // namespace

PoolCounter::Slot &
PoolCounter::mine()
{
    // Slot indices are per counter object: a thread first seen by this
    // counter takes the next free slot.
    static thread_local const PoolCounter *owner = nullptr;
    static thread_local std::size_t index = 0;
    if (owner != this) {
        owner = this;
        index = std::min(nextSlot.fetch_add(1, std::memory_order_relaxed),
                         kSlots - 1);
    }
    return slots[index];
}

void
PoolCounter::onEnqueue(std::size_t)
{
    mine().enqueues.fetch_add(1, std::memory_order_relaxed);
}

void
PoolCounter::onChunkStart(std::size_t, std::size_t, std::size_t)
{
    chunkStarts().push_back(now());
}

void
PoolCounter::onChunkEnd(std::size_t, std::size_t begin, std::size_t end)
{
    const double stop = now();
    auto &starts = chunkStarts();
    const double start = starts.back();
    starts.pop_back();
    Slot &slot = mine();
    slot.chunks.fetch_add(1, std::memory_order_relaxed);
    slot.items.fetch_add(end - begin, std::memory_order_relaxed);
    // Busy time counts outermost chunks only: a nested chunk runs
    // inside its parent's interval on the same thread.
    if (starts.empty())
        slot.busyNs.fetch_add(
            static_cast<std::uint64_t>((stop - start) * 1e9),
            std::memory_order_relaxed);
}

} // namespace perfbench
