/**
 * @file
 * Unit tests of the shared work-scheduling layer (DESIGN.md §9):
 * exception propagation, shutdown, the fixed deterministic
 * partition rule, nested-call semantics and the global-pool override.
 */

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/threadpool.hh"

namespace
{

using adrias::ScopedThreadOverride;
using adrias::ThreadPool;

TEST(ThreadPoolTest, ParallelForZeroItemsIsNoOp)
{
    ThreadPool pool(4);
    std::atomic<int> calls{0};
    pool.parallelFor(0, [&](std::size_t, std::size_t) { ++calls; });
    pool.parallelForEach(0, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPoolTest, ParallelForCoversEachIndexExactlyOnce)
{
    ThreadPool pool(4);
    for (std::size_t total : {1ul, 2ul, 7ul, 63ul, 64ul, 65ul, 1000ul}) {
        std::vector<std::atomic<int>> hits(total);
        pool.parallelForEach(total, [&](std::size_t i) { ++hits[i]; });
        for (std::size_t i = 0; i < total; ++i)
            ASSERT_EQ(hits[i].load(), 1) << "total=" << total
                                         << " index=" << i;
    }
}

TEST(ThreadPoolTest, PartitionDependsOnlyOnRangeLength)
{
    for (std::size_t total : {1ul, 5ul, 64ul, 65ul, 129ul, 10000ul}) {
        const std::size_t chunks = ThreadPool::chunkCount(total);
        ASSERT_GE(chunks, 1u);
        ASSERT_LE(chunks, ThreadPool::kMaxChunks);
        // Chunks tile [0, total) exactly, and the bounds come from a
        // pure function of (total, c) — nothing about the pool's size
        // or load enters the computation.
        std::size_t expected_begin = 0;
        for (std::size_t c = 0; c < chunks; ++c) {
            const auto [begin, end] = ThreadPool::chunkBounds(total, c);
            ASSERT_EQ(begin, expected_begin) << "total=" << total;
            ASSERT_GT(end, begin);
            expected_begin = end;
        }
        ASSERT_EQ(expected_begin, total);
    }
}

TEST(ThreadPoolTest, SerialAndParallelVisitOrdersUseTheSameChunks)
{
    // A serial pool must execute the identical chunk sequence, in
    // index order — that is what makes caller-side reductions
    // order-fixed at every thread count.
    ThreadPool serial(1);
    std::vector<std::pair<std::size_t, std::size_t>> seen;
    serial.parallelFor(130, [&](std::size_t begin, std::size_t end) {
        seen.emplace_back(begin, end);
    });
    ASSERT_EQ(seen.size(), ThreadPool::chunkCount(130));
    for (std::size_t c = 0; c < seen.size(); ++c)
        EXPECT_EQ(seen[c], ThreadPool::chunkBounds(130, c));
}

TEST(ThreadPoolTest, ParallelForRethrowsLowestChunkException)
{
    ThreadPool pool(4);
    // 64 items -> 64 single-item chunks; several of them throw and the
    // caller must observe the lowest chunk index, not the first to
    // finish.
    for (int attempt = 0; attempt < 5; ++attempt) {
        try {
            pool.parallelForEach(64, [&](std::size_t i) {
                if (i == 11 || i == 40 || i == 63)
                    throw std::runtime_error(std::to_string(i));
            });
            FAIL() << "expected an exception";
        } catch (const std::runtime_error &error) {
            EXPECT_STREQ(error.what(), "11");
        }
    }
}

TEST(ThreadPoolTest, AllChunksStillRunWhenOneThrows)
{
    ThreadPool pool(4);
    std::atomic<int> ran{0};
    EXPECT_THROW(pool.parallelForEach(64,
                                      [&](std::size_t i) {
                                          ++ran;
                                          if (i == 0)
                                              throw std::runtime_error(
                                                  "first");
                                      }),
                 std::runtime_error);
    EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPoolTest, ShutdownRightAfterParallelForJoinsWithoutDeadlock)
{
    // Destroy a multi-worker pool the moment its parallelFor returns,
    // while workers are still waking from the last chunks: the
    // destructor must stop and join them all, every time.
    for (int round = 0; round < 50; ++round) {
        std::atomic<int> completed{0};
        {
            ThreadPool pool(4);
            pool.parallelForEach(64, [&completed](std::size_t i) {
                if (i % 16 == 0)
                    std::this_thread::sleep_for(
                        std::chrono::microseconds(200));
                ++completed;
            });
        }
        ASSERT_EQ(completed.load(), 64) << "round " << round;
    }
}

TEST(ThreadPoolTest, SerialPoolRunsEverythingOnTheCaller)
{
    ThreadPool pool(1);
    EXPECT_EQ(pool.threadCount(), 1u);
    const auto caller = std::this_thread::get_id();
    std::thread::id seen_for;
    pool.parallelForEach(
        3, [&](std::size_t) { seen_for = std::this_thread::get_id(); });
    EXPECT_EQ(seen_for, caller);
}

TEST(ThreadPoolTest, NestedParallelForRunsInlineOnTheWorker)
{
    ThreadPool pool(4);
    std::atomic<int> outer_on_worker{0};
    std::atomic<int> inner_hits{0};
    pool.parallelForEach(8, [&](std::size_t) {
        if (ThreadPool::onWorkerThread())
            ++outer_on_worker;
        const auto worker = std::this_thread::get_id();
        pool.parallelForEach(4, [&, worker](std::size_t) {
            ++inner_hits;
            // Inline: the nested body never hops to another thread.
            EXPECT_EQ(std::this_thread::get_id(), worker);
        });
    });
    EXPECT_EQ(outer_on_worker.load(), 8);
    EXPECT_EQ(inner_hits.load(), 8 * 4);
}

TEST(ThreadPoolTest, ScopedOverrideSwapsTheGlobalPool)
{
    const unsigned base = ThreadPool::global().threadCount();
    {
        ScopedThreadOverride seven(7);
        EXPECT_EQ(ThreadPool::global().threadCount(), 7u);
        {
            ScopedThreadOverride two(2);
            EXPECT_EQ(ThreadPool::global().threadCount(), 2u);
        }
        EXPECT_EQ(ThreadPool::global().threadCount(), 7u);
    }
    EXPECT_EQ(ThreadPool::global().threadCount(), base);
}

TEST(ThreadPoolTest, ConfiguredThreadsParsesTheEnvironmentKnob)
{
    const char *saved = std::getenv("ADRIAS_THREADS");
    const std::string saved_value = saved ? saved : "";

    ::setenv("ADRIAS_THREADS", "3", 1);
    EXPECT_EQ(ThreadPool::configuredThreads(), 3u);
    ::setenv("ADRIAS_THREADS", "1", 1);
    EXPECT_EQ(ThreadPool::configuredThreads(), 1u);
    ::setenv("ADRIAS_THREADS", "100000", 1);
    EXPECT_EQ(ThreadPool::configuredThreads(), ThreadPool::kMaxThreads);
    // 0 and anything the strict parser rejects fall back to hardware
    // concurrency (>= 1): a negative count must not wrap around to
    // the thread cap, and trailing garbage must not be read as its
    // numeric prefix ("4abc" and "3x" cannot both match the fallback).
    ::setenv("ADRIAS_THREADS", "0", 1);
    const unsigned fallback = ThreadPool::configuredThreads();
    EXPECT_GE(fallback, 1u);
    for (const char *rejected : {"not-a-number", "-1", "4abc", "3x"}) {
        ::setenv("ADRIAS_THREADS", rejected, 1);
        EXPECT_EQ(ThreadPool::configuredThreads(), fallback) << rejected;
    }

    if (saved)
        ::setenv("ADRIAS_THREADS", saved_value.c_str(), 1);
    else
        ::unsetenv("ADRIAS_THREADS");
}

} // namespace
