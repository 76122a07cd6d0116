#include "obs/obs.hh"

#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <vector>

#include "common/io/durable_file.hh"
#include "common/logging.hh"
#include "common/threadpool.hh"

namespace adrias::obs
{

#if ADRIAS_OBS_ENABLED
namespace detail
{
std::atomic<bool> g_metricsEnabled{false};
} // namespace detail
#endif

namespace
{

/** Artifact directory for finishRun (empty: no files written). */
Mutex g_mu;
std::string g_outDir ADRIAS_GUARDED_BY(g_mu);

#if ADRIAS_OBS_ENABLED

/**
 * ThreadPool → obs bridge: queue depth as a gauge, per-chunk kernel
 * timing as a histogram plus wall-clock trace spans.  Installed once
 * on the first startRun/setEnabled(true); every callback re-checks
 * enabled() so a disarmed process pays one relaxed load.
 */
class PoolBridge final : public ThreadPool::Observer
{
  public:
    void
    onEnqueue(std::size_t queue_depth) override
    {
        if (!enabled())
            return;
        static Counter &enqueues =
            MetricsRegistry::global().counter("threadpool.enqueues");
        static Gauge &depth =
            MetricsRegistry::global().gauge("threadpool.queue_depth");
        enqueues.add();
        depth.set(static_cast<double>(queue_depth));
    }

    void
    onChunkStart(std::size_t c, std::size_t begin,
                 std::size_t end) override
    {
        (void)c;
        (void)begin;
        (void)end;
        if (!enabled())
            return;
        starts().push_back(Tracer::global().wallNow());
    }

    void
    onChunkEnd(std::size_t c, std::size_t begin, std::size_t end) override
    {
        if (!enabled())
            return;
        std::vector<double> &stack = starts();
        if (stack.empty())
            return; // armed mid-chunk: no matching start
        const double t0 = stack.back();
        stack.pop_back();
        const double t1 = Tracer::global().wallNow();

        static Counter &chunks =
            MetricsRegistry::global().counter("threadpool.chunks");
        // Microseconds: chunks are µs-scale, which the summary
        // table's four decimals would print as 0.0000 in seconds.
        static Histogram &chunk_us =
            MetricsRegistry::global().histogram("threadpool.chunk_us");
        chunks.add();
        chunk_us.observe((t1 - t0) * 1e6);

        if (Tracer::global().enabled())
            Tracer::global().wallSpan(
                "chunk", "threadpool", t0, t1,
                {arg("chunk", static_cast<std::int64_t>(c)),
                 arg("begin", static_cast<std::int64_t>(begin)),
                 arg("end", static_cast<std::int64_t>(end))});
    }

  private:
    /**
     * Per-thread stack of open chunk start times: nested parallelFor
     * calls run chunks inline on a worker, so starts can nest.
     */
    static std::vector<double> &
    starts()
    {
        static thread_local std::vector<double> stack;
        return stack;
    }
};

/** Install the pool bridge exactly once per process. */
void
installPoolBridge()
{
    static PoolBridge bridge;
    ThreadPool::setObserver(&bridge);
}

#endif // ADRIAS_OBS_ENABLED

} // namespace

void
setEnabled(bool on)
{
#if ADRIAS_OBS_ENABLED
    if (on)
        installPoolBridge();
    detail::g_metricsEnabled.store(on, std::memory_order_relaxed);
#else
    (void)on;
#endif
}

void
startRun(const std::string &out_dir)
{
#if ADRIAS_OBS_ENABLED
    {
        MutexLock lock(g_mu);
        g_outDir = out_dir;
    }
    setEnabled(true);
    Tracer::global().setEnabled(true);
#else
    (void)out_dir;
#endif
}

std::string
finishRun()
{
#if ADRIAS_OBS_ENABLED
    if (!enabled() && !Tracer::global().enabled())
        return "";

    std::string dir;
    {
        MutexLock lock(g_mu);
        dir = g_outDir;
    }

    std::ostringstream report;
    report << MetricsRegistry::global().summaryTable();
    report << "trace events: " << Tracer::global().eventCount();
    if (Tracer::global().droppedEvents() > 0)
        report << " (+" << Tracer::global().droppedEvents()
               << " dropped past cap)";
    report << "\n";

    if (!dir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(dir, ec);
        if (ec) {
            logWarn("obs::finishRun: cannot create " + dir + ": " +
                    ec.message());
        } else {
            const auto path = [&dir](const char *name) {
                return (std::filesystem::path(dir) / name).string();
            };
            // Atomic publication: a run killed mid-export never
            // leaves a truncated trace for tooling to choke on.
            const auto publish = [&path](const char *name,
                                         const std::string &content) {
                if (Result<void> written =
                        io::atomicWriteFile(path(name), content);
                    !written.ok())
                    logWarn("obs::finishRun: " +
                            written.error().toString());
            };
            {
                std::ostringstream out;
                Tracer::global().writeChromeTrace(out);
                publish("trace.json", out.str());
            }
            {
                std::ostringstream out;
                Tracer::global().writeJsonl(out);
                publish("events.jsonl", out.str());
            }
            {
                std::ostringstream out;
                MetricsRegistry::global().writeJsonl(out);
                publish("metrics.jsonl", out.str());
            }
            report << "artifacts: " << path("trace.json") << " (load in "
                   << "chrome://tracing), " << path("events.jsonl")
                   << ", " << path("metrics.jsonl") << "\n";
        }
    }
    return report.str();
#else
    return "";
#endif
}

bool
initFromArgs(int argc, char **argv)
{
#if ADRIAS_OBS_ENABLED
    std::string dir;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--obs-out" && i + 1 < argc) {
            dir = argv[i + 1];
            break;
        }
        const std::string prefix = "--obs-out=";
        if (flag.rfind(prefix, 0) == 0) {
            dir = flag.substr(prefix.size());
            break;
        }
    }
    if (dir.empty()) {
        const char *env = std::getenv("ADRIAS_OBS_OUT");
        if (env != nullptr && *env != '\0')
            dir = env;
    }
    if (dir.empty())
        return false;
    startRun(dir);
    return true;
#else
    (void)argc;
    (void)argv;
    return false;
#endif
}

void
resetAll()
{
    MetricsRegistry::global().reset();
    Tracer::global().clear();
}

} // namespace adrias::obs
