/**
 * @file
 * Minibatch assembly helpers shared by the model trainers and the
 * decision-serving path: stacking equal-length (1 x F) sequences into
 * time-major (B x F) batches, plus the BatchAssembler that groups
 * placement requests into inference batches under a size-or-deadline
 * flush rule.
 */

#ifndef ADRIAS_MODELS_BATCHING_HH
#define ADRIAS_MODELS_BATCHING_HH

#include <algorithm>
#include <cstddef>
#include <deque>
#include <vector>

#include "common/types.hh"
#include "ml/matrix.hh"
#include "ml/scaler.hh"

namespace adrias::models
{

/**
 * Stack per-sample sequences into a batched time-major sequence.
 *
 * @param sequences one entry per batch row; all must share length and
 *        width, each step (1 x F).
 * @return sequence of (B x F) matrices.
 */
std::vector<ml::Matrix>
stackSequences(const std::vector<const std::vector<ml::Matrix> *> &sequences);

/** stackSequences() over each sequence standardized by `scaler`. */
std::vector<ml::Matrix>
stackScaled(const ml::StandardScaler &scaler,
            const std::vector<const std::vector<ml::Matrix> *> &sequences);

/** Stack (1 x F) row vectors into a (B x F) matrix. */
ml::Matrix stackRows(const std::vector<const ml::Matrix *> &rows);

/**
 * Call fn(begin, end) over [0, n) in consecutive chunks of at most
 * `rows` rows.  Whole-dataset inference passes (evaluate(), the Ŝ
 * pre-resolution before training) chunk at the model's training batch
 * size: LSTM workspaces keep the storage of the largest batch they
 * have seen (DESIGN.md §11.2), so a pass never grows them beyond what
 * training already sized.
 */
template <typename Fn>
void
forEachChunk(std::size_t n, std::size_t rows, Fn &&fn)
{
    for (std::size_t begin = 0; begin < n; begin += rows)
        fn(begin, std::min(n, begin + rows));
}

/** BatchAssembler tuning. */
struct BatchAssemblerConfig
{
    /** Flush as soon as this many items are pending (the fused b32
     *  fast-path width). */
    std::size_t batchSize = 32;
};

/**
 * Groups individually arriving work items (request indices) into
 * batches under a size-or-deadline flush rule:
 *
 *  - a batch flushes as soon as batchSize items are pending, or
 *  - as soon as waiting one more tick would cross the earliest
 *    pending item's deadline (deadlines are exclusive, matching the
 *    guard's hard-budget semantics: an item decided exactly at its
 *    deadline tick has already missed it).
 *
 * Items leave in arrival order, so for a fixed push sequence the batch
 * composition is a pure function of (arrival order, deadlines, config)
 * — never of thread scheduling.  Time is logical SimTime supplied by
 * the caller; the assembler never reads a clock.
 */
class BatchAssembler
{
  public:
    explicit BatchAssembler(BatchAssemblerConfig config = {});

    /**
     * Enqueue one item.
     *
     * @param item opaque index of the request (caller-owned storage).
     * @param deadline absolute tick by which the item must have been
     *        decided (exclusive; see class comment).
     */
    void push(std::size_t item, SimTime deadline);

    /**
     * @return true when take() should run now: a full batch is
     *         pending, or deferring past `now` would miss the earliest
     *         deadline (now + 1 >= earliest).
     */
    bool flushDue(SimTime now) const;

    /** Pop up to batchSize items, arrival order. @pre pending() > 0. */
    std::vector<std::size_t> take();

    /** Items currently queued. */
    std::size_t pending() const { return queue.size(); }

    const BatchAssemblerConfig &config() const { return knobs; }

  private:
    struct Pending
    {
        std::size_t item = 0;
        SimTime deadline = 0;
    };

    BatchAssemblerConfig knobs;
    std::deque<Pending> queue;

    /** Min over pending deadlines, maintained incrementally (arrival
     *  order does not imply deadline order). */
    SimTime earliest = 0;

    void recomputeEarliest();
};

} // namespace adrias::models

#endif // ADRIAS_MODELS_BATCHING_HH
