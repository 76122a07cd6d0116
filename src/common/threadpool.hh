/**
 * @file
 * Shared work-scheduling layer: a fixed-size thread pool with a
 * deterministically partitioned parallelFor.
 *
 * The pool is the single place the library runs work in parallel,
 * and it only ever gets coarse, independent units: the items of a
 * scenario sweep (scenario/runner.cc) and the per-benchmark signature
 * runs (scenario/signature.cc).  The ML kernels and model batching
 * are plain serial loops — their shapes are far too small to split
 * (DESIGN.md §9).
 *
 * Determinism contract (DESIGN.md §9): the partition of a range into
 * chunks is a pure function of the range length — never of the thread
 * count, pool load or timing.  Each chunk writes only its own slots,
 * and callers that reduce combine per-chunk partials in chunk index
 * order, so every result is bitwise identical whether the range ran on
 * 1 thread or 64.  `ADRIAS_THREADS=1` selects the legacy serial path
 * (chunks execute inline, in index order, on the caller).
 *
 * Exception semantics: the first exception by *chunk index* (not by
 * wall-clock arrival) is rethrown on the caller once every chunk has
 * finished; remaining chunks still run so partially written outputs are
 * never observed mid-flight.
 *
 * Nesting: a parallelFor issued from inside a worker thread executes
 * inline (serially, in chunk order) on that worker, so a pool item
 * that reaches another parallelFor never blocks waiting on its own
 * pool.
 */

#ifndef ADRIAS_COMMON_THREADPOOL_HH
#define ADRIAS_COMMON_THREADPOOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/mutex.hh"
#include "common/thread_annotations.hh"

namespace adrias
{

/** Fixed-size worker pool; see the file comment for the contract. */
class ThreadPool
{
  public:
    /**
     * Process-wide observability hook.  common/ sits below the obs
     * layer in the dependency order, so the pool cannot call obs
     * directly; instead obs installs one Observer (setObserver) and
     * every pool reports queue depth and chunk execution through it.
     * Callbacks run on worker threads (or inline on the caller for
     * serial pools) and must not touch the pool: they fire outside the
     * pool's own lock, and calling back into parallelFor from one
     * would deadlock or recurse.
     */
    class Observer
    {
      public:
        virtual ~Observer() = default;

        /** Work was enqueued; `queue_depth` is the length just after. */
        virtual void onEnqueue(std::size_t queue_depth) = 0;

        /** Chunk `c` covering [begin, end) is about to run. */
        virtual void onChunkStart(std::size_t c, std::size_t begin,
                                  std::size_t end) = 0;

        /** Chunk `c` finished (also called when its body threw). */
        virtual void onChunkEnd(std::size_t c, std::size_t begin,
                                std::size_t end) = 0;
    };

    /**
     * Install the process-wide observer; nullptr detaches.  Applies to
     * every pool (global, overrides, ad-hoc).  The observer must stay
     * alive until detached.
     */
    static void setObserver(Observer *observer);

    /** @return the installed observer (nullptr when none). */
    static Observer *observer();

    /**
     * @param threads worker count; 0 and 1 both mean "serial": no
     *        workers are spawned and all work runs on the caller.
     */
    explicit ThreadPool(unsigned threads);

    /** Drains every queued task, then joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** @return the configured thread count (1 for a serial pool). */
    unsigned threadCount() const { return configured; }

    /**
     * Run `body(begin, end)` over a deterministic partition of
     * [0, total); see chunkCount() for the partition rule.  A no-op
     * for total == 0.  Blocks until every chunk finished; rethrows the
     * lowest-chunk-index exception.
     */
    void parallelFor(std::size_t total,
                     const std::function<void(std::size_t, std::size_t)>
                         &body);

    /** Index-wise convenience wrapper over parallelFor. */
    void parallelForEach(std::size_t total,
                         const std::function<void(std::size_t)> &fn);

    /**
     * Deterministic partition rule: a range of `total` items is cut
     * into min(total, kMaxChunks) contiguous chunks whose boundaries
     * depend only on `total`.
     */
    static std::size_t chunkCount(std::size_t total);

    /** Half-open bounds of chunk `c` of chunkCount(total) chunks. */
    static std::pair<std::size_t, std::size_t>
    chunkBounds(std::size_t total, std::size_t c);

    /** @return true when called from one of *any* pool's workers. */
    static bool onWorkerThread();

    /**
     * Process-wide pool, sized by the ADRIAS_THREADS environment knob
     * on first use (unset/0: hardware concurrency; 1: serial).
     */
    static ThreadPool &global();

    /**
     * ADRIAS_THREADS parse: a plain decimal integer, clamped to
     * [1, kMaxThreads].  Unset, empty, "0" and anything parseSize
     * rejects (negative, trailing garbage) fall back to hardware
     * concurrency.
     */
    static unsigned configuredThreads();

    /** Upper bound on both chunk and thread counts. */
    static constexpr std::size_t kMaxChunks = 64;
    static constexpr unsigned kMaxThreads = 256;

  private:
    friend class ScopedThreadOverride;

    void workerLoop();

    /** Swap the global pool; used only by ScopedThreadOverride. */
    static ThreadPool *swapGlobal(ThreadPool *next);

    unsigned configured ADRIAS_LOCK_FREE(
        "written only in configure()/shutdown, which are "
        "single-threaded phases");
    std::vector<std::thread> workers ADRIAS_LOCK_FREE(
        "mutated only in configure()/shutdown, before workers run "
        "or after they join");

    Mutex mutex;
    std::condition_variable_any available;
    std::deque<std::function<void()>> queue ADRIAS_GUARDED_BY(mutex);
    bool stopping ADRIAS_GUARDED_BY(mutex) = false;
};

/**
 * Replace the global pool for a scope — the hook the equivalence tests
 * and scaling benches use to run the same computation at several
 * thread counts inside one process.  Not safe while other threads are
 * touching the global pool; intended for single-threaded test/bench
 * setup code only.
 */
class ScopedThreadOverride
{
  public:
    explicit ScopedThreadOverride(unsigned threads);
    ~ScopedThreadOverride();

    ScopedThreadOverride(const ScopedThreadOverride &) = delete;
    ScopedThreadOverride &operator=(const ScopedThreadOverride &) = delete;

  private:
    ThreadPool replacement;
    ThreadPool *previous;
};

} // namespace adrias

#endif // ADRIAS_COMMON_THREADPOOL_HH
