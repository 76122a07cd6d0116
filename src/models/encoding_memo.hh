/**
 * @file
 * A content-keyed memo of encoder outputs: one row of doubles per
 * input sequence, reused across calls.  The models keep three of them
 * (DESIGN.md §15.2): PerformanceModel's signature branch (the k_last
 * row) and history branch (the h_last row), and SystemStateModel's
 * forecast (the inverse-scaled Ŝ row).
 */

#ifndef ADRIAS_MODELS_ENCODING_MEMO_HH
#define ADRIAS_MODELS_ENCODING_MEMO_HH

#include <cstddef>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "ml/matrix.hh"

namespace adrias::obs
{
class Counter;
} // namespace adrias::obs

namespace adrias::models
{

/**
 * Maps a sequence's contents to the row its encoder produced for it.
 *
 * The key is the sequence's raw doubles, never its address: callers
 * pass fresh copies (a new Watcher window per decision, a copy per
 * evaluated sample) and reuse addresses for new contents (a signature
 * store entry replaced in place).  The doubles are hashed, and a hit
 * is confirmed by a bitwise compare against the stored copy, including
 * the step count and step width, so +0.0 and -0.0 are different keys.
 *
 * A cached row is bitwise equal to a recomputed one only because the
 * encoder is row-independent (DESIGN.md §9): the misses are encoded
 * together at their own width, never padded to the call's.
 *
 * Past a fixed 256 entries the memo starts over.  Not synchronized:
 * one caller at a time, as with the LSTM workspaces (DESIGN.md §11.2).
 */
class EncodingMemo
{
  public:
    using Sequence = std::vector<ml::Matrix>;

    /** Encodes the misses: one row per sequence, input order. */
    using Encoder =
        std::function<ml::Matrix(const std::vector<const Sequence *> &)>;

    /**
     * @param counters obs counter prefix; a call adds its distinct
     *        sequences to `<counters>.hits` and `<counters>.misses`.
     * @param width the width of every encoded row.
     */
    EncodingMemo(std::string counters, std::size_t width);

    /**
     * One encoded row per sequence, input order.  Repeated pointers
     * are looked up once per call; every hit gathers its cached row;
     * the misses go through one `encode` call and are memoized.
     *
     * @param sequences borrowed, non-empty sequences.
     * @return (sequences.size() x width) matrix.
     */
    ml::Matrix rows(const std::vector<const Sequence *> &sequences,
                    const Encoder &encode);

    /** Entries held right now. */
    std::size_t size() const { return entries.size(); }

    /** Forget every entry (the encoder's weights or scalers changed). */
    void clear() { entries.clear(); }

  private:
    /** One memoized encoding. */
    struct Entry
    {
        std::size_t steps = 0;     ///< sequence length, part of the key
        std::size_t stepWidth = 0; ///< doubles per step, part of the key
        std::vector<double> raw;   ///< the steps' doubles, the key
        std::vector<double> row;   ///< the encoder's output row

        /** @return true when `sequence` holds exactly this key. */
        bool matches(const Sequence &sequence) const;
    };

    /** Entries kept before the memo starts over. */
    static constexpr std::size_t kCapacity = 256;

    std::string counterPrefix;
    std::size_t width;
    obs::Counter *hitCount = nullptr;
    obs::Counter *missCount = nullptr;

    /** Keyed by a hash of the steps' bytes; collisions share a key. */
    std::unordered_multimap<std::size_t, Entry> entries;

    void count(std::size_t hits, std::size_t misses);
};

} // namespace adrias::models

#endif // ADRIAS_MODELS_ENCODING_MEMO_HH
