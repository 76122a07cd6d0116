/**
 * @file
 * Fixed-capacity ring buffer used for metric history windows.
 *
 * The Watcher keeps the last N samples of each performance event; this
 * container provides O(1) push with stable chronological iteration.
 */

#ifndef ADRIAS_COMMON_RING_BUFFER_HH
#define ADRIAS_COMMON_RING_BUFFER_HH

#include <cstddef>
#include <vector>

#include "common/logging.hh"

namespace adrias
{

/**
 * Fixed-capacity circular buffer; pushing past capacity evicts the
 * oldest element.
 *
 * @tparam T element type (copyable).
 */
template <typename T>
class RingBuffer
{
  public:
    /** @param capacity maximum number of retained elements (> 0). */
    explicit RingBuffer(std::size_t capacity)
        : storage(capacity), head(0), count(0)
    {
        if (capacity == 0)
            fatal("RingBuffer capacity must be positive");
    }

    /** Append a value, evicting the oldest when full. */
    void
    push(const T &value)
    {
        storage[head] = value;
        head = (head + 1) % storage.size();
        if (count < storage.size())
            ++count;
    }

    /** @return number of currently held elements. */
    std::size_t size() const { return count; }

    /** @return the fixed capacity. */
    std::size_t capacity() const { return storage.size(); }

    /** @return true when no elements are held. */
    bool empty() const { return count == 0; }

    /** Drop all elements (capacity is unchanged). */
    void
    clear()
    {
        head = 0;
        count = 0;
    }

    /**
     * Chronological access: index 0 is the oldest retained element,
     * size()-1 the newest.
     */
    const T &
    at(std::size_t index) const
    {
        if (index >= count)
            panic("RingBuffer index out of range");
        const std::size_t start =
            (head + storage.size() - count) % storage.size();
        return storage[(start + index) % storage.size()];
    }

    /** @return the most recently pushed element. @pre !empty() */
    const T &
    newest() const
    {
        return at(count - 1);
    }

    /** @return the oldest retained element. @pre !empty() */
    const T &
    oldest() const
    {
        return at(0);
    }

  private:
    std::vector<T> storage;
    std::size_t head;  ///< next write position
    std::size_t count; ///< number of valid elements
};

} // namespace adrias

#endif // ADRIAS_COMMON_RING_BUFFER_HH
