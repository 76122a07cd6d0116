#include "models/batching.hh"

#include <algorithm>
#include <string>

#include "common/logging.hh"

namespace adrias::models
{

std::vector<ml::Matrix>
stackSequences(const std::vector<const std::vector<ml::Matrix> *> &sequences)
{
    if (sequences.empty())
        panic("stackSequences: empty batch");
    const std::size_t steps = sequences.front()->size();
    if (steps == 0)
        panic("stackSequences: zero-length sequences");
    const std::size_t width = sequences.front()->front().cols();

    // Validate every sequence up front, serially: the report must name
    // the lowest offending row regardless of how the pool schedules
    // chunks, and a too-short (or empty) later sequence must be caught
    // before any timestep lambda indexes into it.
    for (std::size_t b = 0; b < sequences.size(); ++b) {
        const auto &sequence = *sequences[b];
        if (sequence.size() != steps)
            panic("stackSequences: ragged batch (row " +
                  std::to_string(b) + " has " +
                  std::to_string(sequence.size()) + " steps, expected " +
                  std::to_string(steps) + ")");
        for (std::size_t t = 0; t < steps; ++t) {
            if (sequence[t].cols() != width || sequence[t].rows() != 1)
                panic("stackSequences: ragged batch (row " +
                      std::to_string(b) + ", step " + std::to_string(t) +
                      " is " + std::to_string(sequence[t].rows()) + "x" +
                      std::to_string(sequence[t].cols()) + ", expected 1x" +
                      std::to_string(width) + ")");
        }
    }

    std::vector<ml::Matrix> batched;
    batched.reserve(steps);
    for (std::size_t t = 0; t < steps; ++t) {
        ml::Matrix &step = batched.emplace_back(sequences.size(), width);
        for (std::size_t b = 0; b < sequences.size(); ++b) {
            const auto &sequence = *sequences[b];
            for (std::size_t c = 0; c < width; ++c)
                step.at(b, c) = sequence[t].at(0, c);
        }
    }
    return batched;
}

std::vector<ml::Matrix>
stackScaled(const ml::StandardScaler &scaler,
            const std::vector<const std::vector<ml::Matrix> *> &sequences)
{
    std::vector<std::vector<ml::Matrix>> scaled(sequences.size());
    std::vector<const std::vector<ml::Matrix> *> ptrs(sequences.size());
    for (std::size_t b = 0; b < sequences.size(); ++b) {
        scaled[b] = scaler.transformSequence(*sequences[b]);
        ptrs[b] = &scaled[b];
    }
    return stackSequences(ptrs);
}

BatchAssembler::BatchAssembler(BatchAssemblerConfig config)
    : knobs(config)
{
    if (knobs.batchSize == 0)
        fatal("BatchAssembler: batch size must be positive");
}

void
BatchAssembler::push(std::size_t item, SimTime deadline)
{
    if (queue.empty() || deadline < earliest)
        earliest = deadline;
    queue.push_back({item, deadline});
}

bool
BatchAssembler::flushDue(SimTime now) const
{
    if (queue.empty())
        return false;
    if (queue.size() >= knobs.batchSize)
        return true;
    // Deadlines are exclusive: an item decided at tick `earliest` has
    // already missed.  The latest safe dispatch tick is earliest - 1,
    // so once now + 1 would reach the deadline we must flush now.
    return now + 1 >= earliest;
}

std::vector<std::size_t>
BatchAssembler::take()
{
    if (queue.empty())
        panic("BatchAssembler::take on empty queue");
    const std::size_t n = std::min(queue.size(), knobs.batchSize);
    std::vector<std::size_t> batch;
    batch.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        batch.push_back(queue.front().item);
        queue.pop_front();
    }
    recomputeEarliest();
    return batch;
}

void
BatchAssembler::recomputeEarliest()
{
    if (queue.empty()) {
        earliest = 0;
        return;
    }
    earliest = queue.front().deadline;
    for (const Pending &p : queue)
        earliest = std::min(earliest, p.deadline);
}

ml::Matrix
stackRows(const std::vector<const ml::Matrix *> &rows)
{
    if (rows.empty())
        panic("stackRows: empty batch");
    const std::size_t width = rows.front()->cols();
    ml::Matrix out(rows.size(), width);
    for (std::size_t b = 0; b < rows.size(); ++b) {
        if (rows[b]->cols() != width || rows[b]->rows() != 1)
            panic("stackRows: ragged batch");
        for (std::size_t c = 0; c < width; ++c)
            out.at(b, c) = rows[b]->at(0, c);
    }
    return out;
}

} // namespace adrias::models
