/**
 * @file
 * BatchAssembler unit tests: size-or-deadline flushing with the repo's
 * exclusive-deadline boundary, arrival-order takes, and the earliest-
 * deadline bookkeeping across partial takes.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "models/batching.hh"

namespace adrias::models
{
namespace
{

BatchAssembler
makeAssembler(std::size_t batch_size)
{
    return BatchAssembler(BatchAssemblerConfig{batch_size});
}

TEST(BatchAssembler, RejectsZeroBatchSize)
{
    EXPECT_THROW(makeAssembler(0), std::runtime_error);
}

TEST(BatchAssembler, EmptyNeverFlushes)
{
    BatchAssembler assembler = makeAssembler(4);
    EXPECT_EQ(assembler.pending(), 0u);
    EXPECT_FALSE(assembler.flushDue(0));
    EXPECT_FALSE(assembler.flushDue(1'000'000));
    EXPECT_THROW(assembler.take(), std::logic_error);
}

TEST(BatchAssembler, FlushesWhenFull)
{
    BatchAssembler assembler = makeAssembler(3);
    assembler.push(0, 1000);
    assembler.push(1, 1000);
    EXPECT_FALSE(assembler.flushDue(0));
    assembler.push(2, 1000);
    EXPECT_TRUE(assembler.flushDue(0));
}

TEST(BatchAssembler, FlushesAtLastSafeTickBeforeDeadline)
{
    // Deadlines are exclusive: a decision at tick 10 has already
    // missed deadline 10, so the last safe dispatch tick is 9 — the
    // assembler must report due at 9, not before.
    BatchAssembler assembler = makeAssembler(32);
    assembler.push(0, 10);
    EXPECT_FALSE(assembler.flushDue(7));
    EXPECT_FALSE(assembler.flushDue(8));
    EXPECT_TRUE(assembler.flushDue(9));
    EXPECT_TRUE(assembler.flushDue(10)); // already late: still due
}

TEST(BatchAssembler, EarliestDeadlineWinsRegardlessOfOrder)
{
    BatchAssembler assembler = makeAssembler(32);
    assembler.push(0, 50);
    assembler.push(1, 20); // earlier deadline arrives second
    assembler.push(2, 90);
    // Due at tick 19, the last safe tick before deadline 20.
    EXPECT_FALSE(assembler.flushDue(18));
    EXPECT_TRUE(assembler.flushDue(19));
}

TEST(BatchAssembler, TakeReturnsArrivalOrderUpToBatchSize)
{
    BatchAssembler assembler = makeAssembler(2);
    assembler.push(7, 100);
    assembler.push(8, 100);
    assembler.push(9, 100);
    const std::vector<std::size_t> first = assembler.take();
    ASSERT_EQ(first.size(), 2u);
    EXPECT_EQ(first[0], 7u);
    EXPECT_EQ(first[1], 8u);
    EXPECT_EQ(assembler.pending(), 1u);
    const std::vector<std::size_t> second = assembler.take();
    ASSERT_EQ(second.size(), 1u);
    EXPECT_EQ(second[0], 9u);
    EXPECT_EQ(assembler.pending(), 0u);
}

TEST(BatchAssembler, TakeRecomputesEarliestDeadline)
{
    BatchAssembler assembler = makeAssembler(2);
    assembler.push(0, 5);  // taken in the first batch
    assembler.push(1, 6);  // taken in the first batch
    assembler.push(2, 40); // stays behind
    (void)assembler.take();
    // Due at tick 39 now, the last safe tick before deadline 40.
    EXPECT_FALSE(assembler.flushDue(10));
    EXPECT_TRUE(assembler.flushDue(39));
}

} // namespace
} // namespace adrias::models
