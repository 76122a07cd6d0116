/** @file Unit tests for common/ring_buffer. */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/ring_buffer.hh"

namespace adrias
{
namespace
{

/** The buffer's elements in chronological order, read through at(). */
template <typename T>
std::vector<T>
contents(const RingBuffer<T> &buf)
{
    std::vector<T> out;
    for (std::size_t i = 0; i < buf.size(); ++i)
        out.push_back(buf.at(i));
    return out;
}

TEST(RingBuffer, StartsEmpty)
{
    RingBuffer<int> buf(4);
    EXPECT_TRUE(buf.empty());
    EXPECT_LT(buf.size(), buf.capacity());
    EXPECT_EQ(buf.size(), 0u);
    EXPECT_EQ(buf.capacity(), 4u);
}

TEST(RingBuffer, RejectsZeroCapacity)
{
    EXPECT_THROW(RingBuffer<int>(0), std::runtime_error);
}

TEST(RingBuffer, PushUntilFull)
{
    RingBuffer<int> buf(3);
    buf.push(1);
    buf.push(2);
    EXPECT_EQ(buf.size(), 2u);
    EXPECT_LT(buf.size(), buf.capacity());
    buf.push(3);
    EXPECT_EQ(buf.size(), buf.capacity());
    EXPECT_EQ(buf.oldest(), 1);
    EXPECT_EQ(buf.newest(), 3);
}

TEST(RingBuffer, EvictsOldestWhenFull)
{
    RingBuffer<int> buf(3);
    for (int v = 1; v <= 5; ++v)
        buf.push(v);
    EXPECT_EQ(buf.size(), 3u);
    EXPECT_EQ(buf.at(0), 3);
    EXPECT_EQ(buf.at(1), 4);
    EXPECT_EQ(buf.at(2), 5);
}

TEST(RingBuffer, ChronologicalOrderAcrossManyWraps)
{
    RingBuffer<int> buf(7);
    for (int v = 0; v < 100; ++v)
        buf.push(v);
    for (std::size_t i = 0; i < buf.size(); ++i)
        EXPECT_EQ(buf.at(i), 93 + static_cast<int>(i));
}

TEST(RingBuffer, AtOutOfRangePanics)
{
    RingBuffer<int> buf(2);
    buf.push(1);
    EXPECT_THROW(buf.at(1), std::logic_error);
}

TEST(RingBuffer, ClearResetsButKeepsCapacity)
{
    RingBuffer<int> buf(3);
    buf.push(1);
    buf.push(2);
    buf.clear();
    EXPECT_TRUE(buf.empty());
    EXPECT_EQ(buf.capacity(), 3u);
    buf.push(9);
    EXPECT_EQ(buf.newest(), 9);
    EXPECT_EQ(buf.oldest(), 9);
}

TEST(RingBuffer, ToVectorMatchesChronology)
{
    RingBuffer<std::string> buf(3);
    buf.push("a");
    buf.push("b");
    buf.push("c");
    buf.push("d");
    const auto v = contents(buf);
    ASSERT_EQ(v.size(), 3u);
    EXPECT_EQ(v[0], "b");
    EXPECT_EQ(v[1], "c");
    EXPECT_EQ(v[2], "d");
}

TEST(RingBuffer, AccessorsOnEmptyPanic)
{
    RingBuffer<int> buf(3);
    EXPECT_THROW(buf.newest(), std::logic_error);
    EXPECT_THROW(buf.oldest(), std::logic_error);
    EXPECT_THROW(buf.at(0), std::logic_error);
    EXPECT_TRUE(contents(buf).empty());
}

TEST(RingBuffer, SingleElement)
{
    RingBuffer<int> buf(5);
    buf.push(42);
    EXPECT_EQ(buf.size(), 1u);
    EXPECT_EQ(buf.newest(), 42);
    EXPECT_EQ(buf.oldest(), 42);
    EXPECT_EQ(contents(buf), std::vector<int>{42});
}

TEST(RingBuffer, WrapBoundaryExactlyAtCapacity)
{
    // The interesting off-by-one: capacity pushes (no eviction yet)
    // versus capacity + 1 (first eviction).
    RingBuffer<int> buf(4);
    for (int v = 1; v <= 4; ++v)
        buf.push(v);
    EXPECT_EQ(buf.size(), buf.capacity());
    EXPECT_EQ(buf.oldest(), 1);

    buf.push(5); // first wrap
    EXPECT_EQ(buf.size(), 4u);
    EXPECT_EQ(buf.oldest(), 2);
    EXPECT_EQ(buf.newest(), 5);
    EXPECT_EQ(contents(buf), (std::vector<int>{2, 3, 4, 5}));
}

TEST(RingBuffer, ToVectorAndAtAgreeAtExactlyCapacityPushes)
{
    // At exactly `capacity` pushes the head has wrapped back to slot 0
    // but nothing was evicted yet: every chronological index must map
    // straight through, by at() and by contents() alike.
    RingBuffer<int> buf(5);
    for (int v = 10; v < 15; ++v)
        buf.push(v);
    ASSERT_EQ(buf.size(), buf.capacity());
    ASSERT_EQ(buf.size(), 5u);
    for (std::size_t i = 0; i < 5; ++i)
        EXPECT_EQ(buf.at(i), 10 + static_cast<int>(i)) << "index " << i;
    EXPECT_EQ(contents(buf), (std::vector<int>{10, 11, 12, 13, 14}));
}

TEST(RingBuffer, ToVectorAndAtAgreeAtCapacityPlusOnePushes)
{
    // capacity + 1 pushes: the first eviction.  Chronological index 0
    // must now live at physical slot 1, and contents() must replay
    // at() exactly.
    RingBuffer<int> buf(5);
    for (int v = 10; v < 16; ++v)
        buf.push(v);
    ASSERT_EQ(buf.size(), 5u);
    for (std::size_t i = 0; i < 5; ++i)
        EXPECT_EQ(buf.at(i), 11 + static_cast<int>(i)) << "index " << i;
    const auto v = contents(buf);
    ASSERT_EQ(v.size(), buf.size());
    for (std::size_t i = 0; i < v.size(); ++i)
        EXPECT_EQ(v[i], buf.at(i)) << "index " << i;
    EXPECT_EQ(v, (std::vector<int>{11, 12, 13, 14, 15}));
}

TEST(RingBuffer, AllEqualElementsSurviveWrap)
{
    RingBuffer<int> buf(3);
    for (int i = 0; i < 10; ++i)
        buf.push(7);
    EXPECT_EQ(buf.size(), buf.capacity());
    for (std::size_t i = 0; i < buf.size(); ++i)
        EXPECT_EQ(buf.at(i), 7);
}

TEST(RingBuffer, ClearAfterWrapThenRefill)
{
    RingBuffer<int> buf(3);
    for (int v = 0; v < 7; ++v)
        buf.push(v);
    buf.clear();
    EXPECT_TRUE(buf.empty());
    buf.push(100);
    buf.push(101);
    EXPECT_EQ(contents(buf), (std::vector<int>{100, 101}));
}

TEST(RingBuffer, CapacityOneAlwaysKeepsNewest)
{
    RingBuffer<int> buf(1);
    for (int v = 0; v < 10; ++v) {
        buf.push(v);
        EXPECT_EQ(buf.newest(), v);
        EXPECT_EQ(buf.oldest(), v);
        EXPECT_EQ(buf.size(), 1u);
    }
}

} // namespace
} // namespace adrias
