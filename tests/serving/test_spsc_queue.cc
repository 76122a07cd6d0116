/**
 * @file
 * SpscQueue edge cases: full-queue back-pressure, index wrap-around,
 * cross-thread FIFO ordering (run under TSan in the serving CI job),
 * and drain-on-shutdown with requests still in flight.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/spsc_queue.hh"

namespace adrias
{
namespace
{

TEST(SpscQueue, RejectsZeroCapacity)
{
    EXPECT_THROW(SpscQueue<int>(0), std::runtime_error);
}

TEST(SpscQueue, FullQueueBackpressures)
{
    SpscQueue<int> queue(3);
    EXPECT_EQ(queue.capacity(), 3u);
    EXPECT_TRUE(queue.tryPush(1));
    EXPECT_TRUE(queue.tryPush(2));
    EXPECT_TRUE(queue.tryPush(3));
    EXPECT_EQ(queue.size(), queue.capacity());
    // The rejected element is NOT consumed: the producer owns the
    // retry/drop decision.
    EXPECT_FALSE(queue.tryPush(4));
    EXPECT_EQ(queue.size(), 3u);

    int out = 0;
    EXPECT_TRUE(queue.tryPop(out));
    EXPECT_EQ(out, 1);
    EXPECT_LT(queue.size(), queue.capacity());
    EXPECT_TRUE(queue.tryPush(4));
    EXPECT_FALSE(queue.tryPush(5));
}

TEST(SpscQueue, PopOnEmptyLeavesOutUntouched)
{
    SpscQueue<int> queue(2);
    int out = 42;
    EXPECT_FALSE(queue.tryPop(out));
    EXPECT_EQ(out, 42);
    EXPECT_TRUE(queue.empty());
}

TEST(SpscQueue, WrapAroundPreservesFifoOrder)
{
    // Capacity 3 means 4 slots; cycling far past the ring size proves
    // the cursors wrap cleanly and order survives every wrap.
    SpscQueue<std::size_t> queue(3);
    std::size_t next_push = 0;
    std::size_t next_pop = 0;
    for (int cycle = 0; cycle < 100; ++cycle) {
        while (queue.tryPush(next_push))
            ++next_push;
        std::size_t out = 0;
        while (queue.tryPop(out)) {
            ASSERT_EQ(out, next_pop);
            ++next_pop;
        }
    }
    EXPECT_EQ(next_pop, next_push);
    EXPECT_GT(next_pop, 100u);
}

TEST(SpscQueue, SnapshotContentsIsOldestFirstAndNonConsuming)
{
    SpscQueue<int> queue(4);
    // Force the cursors to a wrapped position first.
    int out = 0;
    ASSERT_TRUE(queue.tryPush(-1));
    ASSERT_TRUE(queue.tryPush(-2));
    ASSERT_TRUE(queue.tryPop(out));
    ASSERT_TRUE(queue.tryPop(out));
    for (int v : {10, 20, 30})
        ASSERT_TRUE(queue.tryPush(v));

    const std::vector<int> snapshot = queue.snapshotContents();
    ASSERT_EQ(snapshot.size(), 3u);
    EXPECT_EQ(snapshot[0], 10);
    EXPECT_EQ(snapshot[1], 20);
    EXPECT_EQ(snapshot[2], 30);
    EXPECT_EQ(queue.size(), 3u); // nothing consumed
    ASSERT_TRUE(queue.tryPop(out));
    EXPECT_EQ(out, 10);
}

TEST(SpscQueue, CrossThreadOrderingUnderContention)
{
    // One producer, one consumer, a deliberately tiny ring so both
    // sides hit the full/empty boundaries constantly.  TSan (the
    // serving CI job) checks the acquire/release pairing; the assert
    // checks FIFO ordering end to end.
    constexpr std::size_t kCount = 5000;
    SpscQueue<std::size_t> queue(4);
    std::vector<std::size_t> received;
    received.reserve(kCount);

    std::thread producer([&queue] {
        for (std::size_t i = 0; i < kCount;) {
            if (queue.tryPush(i))
                ++i;
            else
                std::this_thread::yield();
        }
    });
    std::size_t out = 0;
    while (received.size() < kCount) {
        if (queue.tryPop(out))
            received.push_back(out);
        else
            std::this_thread::yield();
    }
    producer.join();

    ASSERT_EQ(received.size(), kCount);
    for (std::size_t i = 0; i < kCount; ++i)
        ASSERT_EQ(received[i], i);
    EXPECT_TRUE(queue.empty());
}

TEST(SpscQueue, DrainOnShutdownDeliversInFlightElements)
{
    // Producer stops at an arbitrary point (simulated shutdown); the
    // consumer joins it and then drains — every accepted element must
    // come out, none twice.
    SpscQueue<std::size_t> queue(8);
    std::atomic<std::size_t> accepted{0};
    std::atomic<bool> producer_done{false};
    std::thread producer([&queue, &accepted, &producer_done] {
        for (std::size_t i = 0; i < 1000; ++i) {
            if (queue.tryPush(i))
                accepted.fetch_add(1, std::memory_order_relaxed);
        }
        producer_done.store(true, std::memory_order_release);
    });

    std::vector<std::size_t> received;
    std::size_t out = 0;
    // Consume concurrently until the producer shuts down mid-stream
    // (it never retries, so rejected elements are simply dropped).
    while (!producer_done.load(std::memory_order_acquire)) {
        if (queue.tryPop(out))
            received.push_back(out);
    }
    producer.join();

    // Shutdown drain: everything still queued must be delivered.
    while (queue.tryPop(out))
        received.push_back(out);
    EXPECT_EQ(received.size(),
              accepted.load(std::memory_order_relaxed));
    for (std::size_t i = 1; i < received.size(); ++i)
        ASSERT_LT(received[i - 1], received[i]);
    EXPECT_TRUE(queue.empty());
}

} // namespace
} // namespace adrias
