/**
 * @file
 * Benchmark-side tracing: wall-clock spans recorded around calls into
 * the library's public entry points, a ThreadPool::Observer counting
 * pool work, and the attribution table that folds span self times into
 * rows summing to a measured wall clock.  Nothing here reaches inside
 * src/; every span wraps a public call made by the benchmark itself.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/threadpool.hh"

namespace perfbench
{

/** Monotonic time in seconds (steady_clock). */
inline double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * In-memory span recorder for the benchmark's main thread.  Spans are
 * kept until the run ends and only then folded into self times; spans
 * opened on any other thread, or while disabled, are not recorded.
 */
class Tracer
{
  public:
    static Tracer &global();

    /** Start recording on the calling thread; reserves `capacity`. */
    void enable(std::size_t capacity);

    /** Stop recording (recorded spans are kept). */
    void disable() { on = false; }

    bool
    recording() const
    {
        return on && std::this_thread::get_id() == owner;
    }

    /** @return index of the opened span, or -1 when not recorded. */
    std::int64_t open(const char *name);

    void close(std::int64_t index);

    /** Spans that did not fit the reserved capacity. */
    std::size_t dropped() const { return droppedSpans; }

    std::size_t recorded() const { return spans.size(); }

    /**
     * Self time per span name (duration minus the time covered by its
     * child spans), in first-seen order.
     */
    std::vector<std::pair<std::string, double>> selfTimes() const;

  private:
    struct Span
    {
        double start = 0.0;
        double end = 0.0;
        const char *name = nullptr;
        std::int64_t parent = -1;
    };

    bool on = false;
    std::thread::id owner;
    std::vector<Span> spans;
    std::vector<std::int64_t> stack;
    std::size_t droppedSpans = 0;
};

/** RAII span; a no-op unless the tracer is recording on this thread. */
class ScopedSpan
{
  public:
    explicit ScopedSpan(const char *name)
        : index(Tracer::global().recording() ? Tracer::global().open(name)
                                             : -1)
    {
    }

    ~ScopedSpan()
    {
        if (index >= 0)
            Tracer::global().close(index);
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    std::int64_t index;
};

/**
 * Counts ThreadPool work: enqueues, chunks, items and the summed
 * wall-clock time chunks ran (across all threads).  Installed only for
 * the traced phase, so the untraced phase runs the pool unobserved.
 * Each thread counts into its own cache line, so observing millions of
 * chunks adds no cross-thread contention.
 */
class PoolCounter : public adrias::ThreadPool::Observer
{
  public:
    void onEnqueue(std::size_t queue_depth) override;
    void onChunkStart(std::size_t c, std::size_t begin,
                      std::size_t end) override;
    void onChunkEnd(std::size_t c, std::size_t begin,
                    std::size_t end) override;

    std::uint64_t enqueues() const { return total(&Slot::enqueues); }
    std::uint64_t chunks() const { return total(&Slot::chunks); }
    std::uint64_t items() const { return total(&Slot::items); }
    double busySeconds() const { return total(&Slot::busyNs) * 1e-9; }

  private:
    struct alignas(64) Slot
    {
        std::atomic<std::uint64_t> enqueues{0};
        std::atomic<std::uint64_t> chunks{0};
        std::atomic<std::uint64_t> items{0};
        std::atomic<std::uint64_t> busyNs{0};
    };

    /** One slot per thread; threads beyond the last share it. */
    static constexpr std::size_t kSlots = 64;
    Slot slots[kSlots];
    std::atomic<std::size_t> nextSlot{0};

    Slot &mine();

    std::uint64_t
    total(std::atomic<std::uint64_t> Slot::*field) const
    {
        std::uint64_t sum = 0;
        for (const Slot &slot : slots)
            sum += (slot.*field).load(std::memory_order_relaxed);
        return sum;
    }
};

/** Installs a PoolCounter for a scope and detaches it afterwards. */
class ScopedPoolCounter
{
  public:
    explicit ScopedPoolCounter(PoolCounter &counter)
    {
        adrias::ThreadPool::setObserver(&counter);
    }

    ~ScopedPoolCounter() { adrias::ThreadPool::setObserver(nullptr); }

    ScopedPoolCounter(const ScopedPoolCounter &) = delete;
    ScopedPoolCounter &operator=(const ScopedPoolCounter &) = delete;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
