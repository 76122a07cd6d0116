/**
 * @file
 * Bounded lock-free single-producer/single-consumer queue (Lamport
 * ring) — the ingest path between one shard's producer and the
 * DecisionService drain loop.
 *
 * Concurrency contract:
 *  - exactly ONE producer thread calls tryPush()/full(), and exactly
 *    ONE consumer thread calls tryPop()/empty(); which thread plays
 *    which role may change only across a synchronization point (e.g. a
 *    join, or a quiesced checkpoint).
 *  - tryPush() publishes the slot with a release store of `tail`;
 *    tryPop() acquires `tail` before reading the slot, so the element
 *    is fully constructed when observed.  Symmetrically the consumer
 *    releases `head` and the producer acquires it before reusing a
 *    slot.
 *  - a full queue back-pressures: tryPush() returns false and the
 *    element is NOT consumed, so the producer decides whether to drop,
 *    retry or count the rejection.
 *
 * size() is exact only when the queue is quiescent (no concurrent
 * push/pop); under concurrency it is a lower/upper bound depending on
 * which side races — fine for stats, not for control flow.
 */

#ifndef ADRIAS_COMMON_SPSC_QUEUE_HH
#define ADRIAS_COMMON_SPSC_QUEUE_HH

#include <atomic>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/logging.hh"

namespace adrias
{

/** Bounded wait-free SPSC ring; see the file comment for the rules. */
template <typename T>
class SpscQueue
{
  public:
    /** @param capacity maximum queued elements (> 0). */
    explicit SpscQueue(std::size_t capacity) : slots(capacity + 1)
    {
        if (capacity == 0)
            fatal("SpscQueue: capacity must be positive");
    }

    SpscQueue(const SpscQueue &) = delete;
    SpscQueue &operator=(const SpscQueue &) = delete;

    /**
     * Producer side: enqueue one element.
     *
     * @return false (element untouched at the call site: it was moved
     *         from only on success) when the queue is full.
     */
    bool
    tryPush(T value)
    {
        const std::size_t t = tail.load(std::memory_order_relaxed);
        const std::size_t n = next(t);
        if (n == head.load(std::memory_order_acquire))
            return false; // full: back-pressure to the producer
        slots[t] = std::move(value);
        tail.store(n, std::memory_order_release);
        return true;
    }

    /**
     * Consumer side: dequeue the oldest element.
     *
     * @return false when the queue is empty (out untouched).
     */
    bool
    tryPop(T &out)
    {
        const std::size_t h = head.load(std::memory_order_relaxed);
        if (h == tail.load(std::memory_order_acquire))
            return false; // empty
        out = std::move(slots[h]);
        head.store(next(h), std::memory_order_release);
        return true;
    }

    /** Maximum number of queued elements. */
    std::size_t capacity() const { return slots.size() - 1; }

    /** Queued elements; exact only while quiescent. */
    std::size_t
    size() const
    {
        const std::size_t h = head.load(std::memory_order_acquire);
        const std::size_t t = tail.load(std::memory_order_acquire);
        return t >= h ? t - h : slots.size() - h + t;
    }

    /** Consumer-side emptiness check. */
    bool
    empty() const
    {
        return head.load(std::memory_order_acquire) ==
               tail.load(std::memory_order_acquire);
    }

    /**
     * Copy the queued elements oldest-first WITHOUT consuming them.
     * Quiescent-only (checkpointing): no concurrent push/pop may be in
     * flight, otherwise the copy may tear a half-published slot.
     */
    std::vector<T>
    snapshotContents() const
    {
        std::vector<T> contents;
        const std::size_t t = tail.load(std::memory_order_acquire);
        for (std::size_t i = head.load(std::memory_order_acquire);
             i != t; i = next(i))
            contents.push_back(slots[i]);
        return contents;
    }

  private:
    std::size_t next(std::size_t i) const
    {
        return i + 1 == slots.size() ? 0 : i + 1;
    }

    /** capacity+1 slots: one is always empty to distinguish full. */
    std::vector<T> slots;

    /** Consumer cursor: index of the oldest element. */
    std::atomic<std::size_t> head{0};

    /** Producer cursor: index of the next free slot. */
    std::atomic<std::size_t> tail{0};
};

} // namespace adrias

#endif // ADRIAS_COMMON_SPSC_QUEUE_HH
