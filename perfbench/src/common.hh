/**
 * @file
 * Shared plumbing of the perfbench driver: run options, timing and
 * statistics helpers, the metric sink that prints the result line,
 * the in-memory span log of traced runs, and the host/build
 * fingerprint every result is tagged with.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace mbbp
{
class ThreadPool;
}

namespace perfbench
{

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point start);

/** Everything one invocation was asked to do. */
struct RunOptions
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool tiny = false;          //!< smoke size: every input shrunk
    unsigned workers = 1;       //!< pool size (nproc)
    std::string outDir;         //!< span files land here
    std::string workDir;        //!< scratch, removed at exit
    /** BENCHMARK.json's per_layer metrics, (name, unit), in order. */
    std::vector<std::pair<std::string, std::string>> perLayer;
};

/** One run's verdict and metrics, printed as the last stdout line. */
struct RunResult
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;

    /** Record metric @p name (insertion order is kept). */
    void metric(const std::string &name, double value,
                const std::string &unit);

    /** A correctness-gate failure: printed to stderr, marks the run
     *  incorrect (the process then exits nonzero). */
    void mismatch(const std::string &what);

    std::string json() const;

  private:
    struct Entry
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Entry> metrics_;
};

/** @{ Order statistics over a copy of @p v (linear interpolation
 *  between closest ranks; empty input gives 0). */
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}
/** @} */

/**
 * Split @p n samples, in the order they were taken, into consecutive
 * [first, last) windows: at most 20 of at least 25 samples each (one
 * window when there are fewer). A median over per-window figures is
 * moved by a few seconds of load on the host only in a few windows.
 */
std::vector<std::pair<std::size_t, std::size_t>>
sampleWindows(std::size_t n);

/**
 * setup_s: the median time of @p set_up, run at least 21 times and
 * for at least 2 s of host time, so that a short burst of load on the
 * host moves none of it. @p tear_down runs untimed before each
 * repeat but the first; the last set-up is kept.
 */
template <typename TearDown, typename SetUp>
double
setupMedian(TearDown tear_down, SetUp set_up)
{
    std::vector<double> secs;
    Clock::time_point start = Clock::now();
    while (secs.size() < 21 || secondsSince(start) < 2.0) {
        if (!secs.empty())
            tear_down();
        Clock::time_point t0 = Clock::now();
        set_up();
        secs.push_back(secondsSince(t0));
    }
    return median(secs);
}

/** Peak resident set size of this process so far, in MiB. */
double peakRssMb();

/** 64-bit FNV-1a, for comparing report bytes without keeping them. */
uint64_t fnv1a(const std::string &bytes);

/** A small deterministic generator (splitmix64) for seeded inputs. */
class SeedRng
{
  public:
    explicit SeedRng(uint64_t seed) : state_(seed) {}
    uint64_t next();
    /** Uniform in [0, n). */
    std::size_t below(std::size_t n);
    double unit();

    /** Fisher-Yates shuffle. */
    template <typename T>
    void shuffle(std::vector<T> &v)
    {
        for (std::size_t i = v.size(); i > 1; --i)
            std::swap(v[i - 1], v[below(i)]);
    }

  private:
    uint64_t state_;
};

/** Run fn(0..n-1) as tasks of one TaskGroup on @p pool and wait;
 *  the first exception a task throws is rethrown. */
void parallelFor(mbbp::ThreadPool &pool, std::size_t n,
                 const std::function<void(std::size_t)> &fn);

/**
 * The host and build fingerprint: nproc, CPU model, active SIMD
 * level, CMAKE_BUILD_TYPE, MBBP_OBS, plus the run's identity, as one
 * JSON object.
 */
std::string fingerprintJson(const RunOptions &opts);

/**
 * The spans of a traced run, kept in memory and written out once at
 * the end. Each span names its layer, the operation it belongs to
 * (spans of one operation share an id) and the span that caused it.
 * Thread-safe; spans are coarse (one per layer call), so a mutex is
 * cheap enough.
 */
class SpanLog
{
  public:
    static constexpr int64_t kNoParent = -1;

    /** Open a span and return its id. */
    int64_t begin(const std::string &layer, const std::string &name,
                  uint64_t op, int64_t parent);
    void end(int64_t id);

    /** Per-layer self time (span duration minus the part of it its
     *  children cover), summed over spans of operations in @p ops;
     *  spans of the "bench" layer (operation roots) are left out. */
    std::map<std::string, double>
    selfSeconds(const std::vector<uint64_t> &ops) const;

    /** Wall time of operation @p op covered by at least one
     *  non-root span. */
    double coveredSeconds(uint64_t op) const;

    /** Total duration of spans named @p name. */
    double totalSeconds(const std::string &name) const;
    std::size_t count(const std::string &name) const;

    /** chrome://tracing JSON of every span. */
    void write(const std::string &path) const;

  private:
    struct Span
    {
        std::string layer;
        std::string name;
        uint64_t op = 0;
        int64_t parent = kNoParent;
        double t0 = 0.0;
        double t1 = 0.0;
        uint64_t tid = 0;
    };

    mutable std::mutex mutex_;
    std::vector<Span> spans_;
    Clock::time_point origin_ = Clock::now();
};

/** RAII span; a null log makes it a no-op. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog *log, const std::string &layer,
               const std::string &name, uint64_t op,
               int64_t parent = SpanLog::kNoParent)
        : log_(log),
          id_(log ? log->begin(layer, name, op, parent) : 0)
    {
    }
    ~ScopedSpan()
    {
        if (log_)
            log_->end(id_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int64_t id() const { return id_; }

  private:
    SpanLog *log_;
    int64_t id_;
};

/** @{ Workload entry points (sweeps.cc, serve.cc). */
RunResult runSweepWorkload(const RunOptions &opts);
RunResult runServeWorkload(const RunOptions &opts);
/** @} */

/** Per-layer values of a traced run, keyed by metric name. */
using LayerValues = std::map<std::string, double>;

/**
 * Print every per-layer metric of @p opts.perLayer, in its order and
 * with its unit. A layer the workload's path does not reach reads 0;
 * a value under a name BENCHMARK.json does not list throws.
 */
void emitLayerMetrics(const RunOptions &opts, const LayerValues &values,
                      RunResult &out);

/**
 * The kernel ledger: ns per instruction x config of each engine kind
 * (single, dual, multi, two_ahead) on each replay path (soa_wide,
 * soa_scalar, reference, solo), on one fixed trace, into
 * sweep.kernel_ns_per_inst_config.<kind>.<path>.
 */
void kernelLedger(const RunOptions &opts, LayerValues &values);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
