#include "common/threadpool.hh"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <utility>

#include "common/error.hh"

namespace adrias
{

namespace
{

/** Set for the lifetime of a worker thread's loop. */
thread_local bool t_insideWorker = false;

/** Active override installed by ScopedThreadOverride (else null). */
std::atomic<ThreadPool *> g_override{nullptr};

/** Process-wide observer installed via ThreadPool::setObserver. */
std::atomic<ThreadPool::Observer *> g_observer{nullptr};

/** Completion state shared between one parallelFor and its chunks. */
struct ForState
{
    Mutex mutex;
    std::condition_variable_any done;
    std::size_t remaining ADRIAS_GUARDED_BY(mutex);
    std::exception_ptr first ADRIAS_GUARDED_BY(mutex);
    std::size_t firstChunk ADRIAS_GUARDED_BY(mutex) =
        std::numeric_limits<std::size_t>::max();

    explicit ForState(std::size_t chunks) : remaining(chunks) {}
};

/** Record a chunk's outcome; keeps the lowest-index exception. */
void
finishChunk(ForState &state, std::size_t chunk,
            std::exception_ptr error) ADRIAS_EXCLUDES(state.mutex)
{
    MutexLock lock(state.mutex);
    if (error && chunk < state.firstChunk) {
        state.firstChunk = chunk;
        state.first = error;
    }
    // Notify while still holding the lock: the waiter frees the
    // ForState as soon as it observes remaining == 0, so signalling
    // after unlock would race that destruction.
    if (--state.remaining == 0)
        state.done.notify_all();
}

/**
 * Block until every chunk reported in; @return the lowest-chunk-index
 * exception (null if none).  condition_variable_any releases and
 * reacquires the annotated Mutex internally, which the static
 * analysis cannot see — hence the opt-out.
 */
std::exception_ptr
awaitChunks(ForState &state) ADRIAS_NO_THREAD_SAFETY_ANALYSIS
{
    MutexLock lock(state.mutex);
    state.done.wait(state.mutex, [&] { return state.remaining == 0; });
    return state.first;
}

} // namespace

ThreadPool::ThreadPool(unsigned threads)
    : configured(threads == 0 ? 1u : std::min(threads, kMaxThreads))
{
    if (configured <= 1)
        return; // serial pool: all work runs on the caller
    workers.reserve(configured);
    try {
        for (unsigned i = 0; i < configured; ++i)
            workers.emplace_back([this] { workerLoop(); });
    } catch (...) {
        // Partially spawned pool: stop and join what exists, or the
        // std::thread destructors would terminate the process.
        {
            MutexLock lock(mutex);
            stopping = true;
        }
        available.notify_all();
        for (std::thread &worker : workers)
            worker.join();
        throw;
    }
}

ThreadPool::~ThreadPool()
{
    {
        MutexLock lock(mutex);
        stopping = true;
    }
    available.notify_all();
    for (std::thread &worker : workers)
        worker.join();
}

void
ThreadPool::workerLoop() ADRIAS_NO_THREAD_SAFETY_ANALYSIS
{
    t_insideWorker = true;
    for (;;) {
        std::function<void()> task;
        {
            MutexLock lock(mutex);
            available.wait(mutex,
                           [&] { return stopping || !queue.empty(); });
            // Drain queued work even when stopping: a destructor must
            // never strand a chunk whose parallelFor is still waiting.
            if (queue.empty())
                return;
            task = std::move(queue.front());
            queue.pop_front();
        }
        task();
    }
}

std::size_t
ThreadPool::chunkCount(std::size_t total)
{
    return std::min(total, kMaxChunks);
}

std::pair<std::size_t, std::size_t>
ThreadPool::chunkBounds(std::size_t total, std::size_t c)
{
    const std::size_t chunks = chunkCount(total);
    const std::size_t base = total / chunks;
    const std::size_t extra = total % chunks;
    // The first `extra` chunks carry one additional item; boundaries
    // are a pure function of (total, c).
    const std::size_t begin = c * base + std::min(c, extra);
    const std::size_t length = base + (c < extra ? 1 : 0);
    return {begin, begin + length};
}

bool
ThreadPool::onWorkerThread()
{
    return t_insideWorker;
}

void
ThreadPool::parallelFor(
    std::size_t total,
    const std::function<void(std::size_t, std::size_t)> &body)
{
    if (total == 0)
        return;
    const std::size_t chunks = chunkCount(total);
    Observer *watcher = observer();

    // Serial pool, nested call from a worker, or a single chunk: run
    // the *same* chunk sequence inline, in index order.  Identical
    // partitioning on both paths is what makes reductions order-fixed.
    if (workers.empty() || onWorkerThread() || chunks == 1) {
        for (std::size_t c = 0; c < chunks; ++c) {
            const auto [begin, end] = chunkBounds(total, c);
            if (watcher)
                watcher->onChunkStart(c, begin, end);
            body(begin, end);
            if (watcher)
                watcher->onChunkEnd(c, begin, end);
        }
        return;
    }

    ForState state(chunks);
    std::size_t depth = 0;
    {
        MutexLock lock(mutex);
        if (stopping)
            throw std::logic_error(
                "ThreadPool::parallelFor on a stopping pool");
        for (std::size_t c = 0; c < chunks; ++c) {
            queue.push_back([&state, &body, total, c, watcher] {
                const auto [begin, end] = chunkBounds(total, c);
                if (watcher)
                    watcher->onChunkStart(c, begin, end);
                std::exception_ptr error;
                try {
                    body(begin, end);
                } catch (...) {
                    error = std::current_exception();
                }
                if (watcher)
                    watcher->onChunkEnd(c, begin, end);
                finishChunk(state, c, error);
            });
        }
        depth = queue.size();
    }
    available.notify_all();
    if (watcher)
        watcher->onEnqueue(depth);
    if (std::exception_ptr first = awaitChunks(state))
        std::rethrow_exception(first);
}

void
ThreadPool::parallelForEach(std::size_t total,
                            const std::function<void(std::size_t)> &fn)
{
    parallelFor(total, [&fn](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i)
            fn(i);
    });
}

unsigned
ThreadPool::configuredThreads()
{
    if (const char *env = std::getenv("ADRIAS_THREADS")) {
        const std::size_t parsed = parseSize(env).valueOr(0);
        if (parsed >= 1)
            return static_cast<unsigned>(
                std::min<std::size_t>(parsed, kMaxThreads));
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1u : std::min(hw, kMaxThreads);
}

ThreadPool &
ThreadPool::global()
{
    ThreadPool *override_pool = g_override.load(std::memory_order_acquire);
    if (override_pool)
        return *override_pool;
    static ThreadPool pool(configuredThreads());
    return pool;
}

ThreadPool *
ThreadPool::swapGlobal(ThreadPool *next)
{
    return g_override.exchange(next, std::memory_order_acq_rel);
}

void
ThreadPool::setObserver(Observer *observer)
{
    g_observer.store(observer, std::memory_order_release);
}

ThreadPool::Observer *
ThreadPool::observer()
{
    return g_observer.load(std::memory_order_acquire);
}

ScopedThreadOverride::ScopedThreadOverride(unsigned threads)
    : replacement(threads),
      previous(ThreadPool::swapGlobal(&replacement))
{
}

ScopedThreadOverride::~ScopedThreadOverride()
{
    ThreadPool::swapGlobal(previous);
}

} // namespace adrias
