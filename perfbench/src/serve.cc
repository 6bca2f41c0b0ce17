/**
 * @file
 * The serve_mixed workload: an in-process SweepServer (batched
 * replay, a pool of half the cores, the daemon's defaults otherwise)
 * driven over loopback HTTP by one closed-loop client. The server
 * speaks one request per connection; the client sends its next
 * request only after the previous one completed.
 *
 * Each request is a small spec drawn from the seed. One request in
 * every four, at a position the seed draws, repeats one of the last
 * 48 specs issued and can be served from the result cache (exactly a
 * quarter, so the median does not move with how many repeats a run
 * happened to draw); the rest are fresh grid points. The spec shape follows the serve-smoke job of the CI
 * workflow (a 2 x 2 historyBits x bitEntries grid), over the four
 * SPECint programs so that every fresh job costs about the same; the
 * repeat share, its window, the base-field mix and the size are
 * assumptions, not recorded usage (perfbench/ledger.json). The
 * measured share of repeats is reported, so a result-cache gain
 * names the property it depends on.
 *
 * Setup restarts the server on an artifact directory that an
 * untimed pre-step filled, and warms it by one job over every
 * program (so the artifact load is part of set-up). The gate
 * compares every result with the in-process runSweep report for the
 * same spec.
 */

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>

#include "common.hh"
#include "core/suite_runner.hh"
#include "obs/obs.hh"
#include "serve/http.hh"
#include "serve/server.hh"
#include "sweep/sweep_report.hh"
#include "sweep/sweep_runner.hh"
#include "sweep/sweep_spec.hh"
#include "sweep/thread_pool.hh"
#include "trace/artifact_file.hh"
#include "trace/decoded_trace.hh"
#include "util/json.hh"
#include "workload/spec95.hh"

namespace perfbench
{

using namespace mbbp;
using namespace mbbp::serve;

namespace
{

const std::vector<std::string> kPrograms = { "gcc", "go", "perl", "li" };
/** One request in every kRepeatEvery repeats an earlier spec. */
constexpr std::size_t kRepeatEvery = 4;
constexpr std::size_t kRepeatWindow = 48;

/** One request of the seeded sequence. */
struct Item
{
    std::string spec;
    std::size_t distinct = 0;   //!< index of the distinct spec
    bool repeat = false;
};

/**
 * The seeded request sequence, extended on demand. Fresh specs are
 * distinct dual-block 2 x 2 grids over all four programs, so every
 * fresh job costs about the same and the median measures the
 * service, not the luck of the draw. numPhts stays 1: numPhts > 1 on
 * 2-4 block kinds aborts the process today (select_table.cc).
 */
class Traffic
{
  public:
    Traffic(uint64_t seed, std::size_t insts) : rng_(seed), insts_(insts)
    {
    }

    Item at(std::size_t i)
    {
        while (items_.size() <= i)
            extend();
        return items_[i];
    }

    const std::vector<std::string> &distinct() const { return specs_; }

    /** Configs x programs x instructions of every spec. */
    uint64_t work() const { return kPrograms.size() * 4 * insts_; }

  private:
    void extend()
    {
        Item it;
        if (items_.size() % kRepeatEvery == 0)
            repeatAt_ = items_.size() + rng_.below(kRepeatEvery);
        if (!items_.empty() && items_.size() == repeatAt_) {
            std::size_t window = std::min(items_.size(), kRepeatWindow);
            it = items_[items_.size() - 1 - rng_.below(window)];
            it.repeat = true;
        } else {
            // 10800 distinct specs; a window uses about 2000.
            std::string s;
            do {
                s = freshSpec();
            } while (seen_.count(s) && seen_.size() < 10800);
            seen_.insert(s);
            it.spec = s;
            it.distinct = specs_.size();
            specs_.push_back(s);
        }
        items_.push_back(it);
    }

    /** Two distinct values of @p n, as indices in increasing order. */
    std::pair<std::size_t, std::size_t> pair(std::size_t n)
    {
        std::size_t a = rng_.below(n);
        std::size_t b = rng_.below(n - 1);
        if (b >= a)
            ++b;
        return { std::min(a, b), std::max(a, b) };
    }

    std::string freshSpec()
    {
        static const unsigned kSelect[] = { 1, 2, 4, 8 };
        static const unsigned kBit[] = { 32, 64, 128, 256, 512, 1024 };
        auto [h1, h2] = pair(10);
        auto [b1, b2] = pair(6);
        std::ostringstream os;
        os << "{\"name\": \"serve\", \"benchmarks\": [";
        for (std::size_t i = 0; i < kPrograms.size(); ++i)
            os << (i ? ", " : "") << "\"" << kPrograms[i] << "\"";
        os << "], \"instructions\": " << insts_
           << ", \"base\": {\"numBlocks\": 2, \"numSelectTables\": "
           << kSelect[rng_.below(4)]
           << ", \"nearBlock\": " << (rng_.below(2) ? "true" : "false")
           << ", \"delayedPhtUpdate\": "
           << (rng_.below(2) ? "true" : "false")
           << "}, \"grid\": {\"historyBits\": [" << 4 + h1 << ", "
           << 4 + h2 << "], \"bitEntries\": [" << kBit[b1] << ", "
           << kBit[b2] << "]}}";
        return os.str();
    }

    SeedRng rng_;
    std::size_t repeatAt_ = 0;  //!< the repeat of the current block
    std::size_t insts_;
    std::vector<Item> items_;
    std::vector<std::string> specs_;
    std::set<std::string> seen_;
};

/** One client request, submit to result bytes. */
struct Sample
{
    bool ok = false;
    bool cached = false;
    std::size_t distinct = 0;
    bool repeat = false;
    uint64_t hash = 0;
    uint64_t id = 0;
    double latency = 0.0;
    double submit = 0.0;
    double fetch = 0.0;
    double end = 0.0;           //!< completion, seconds since start
    double queuedMs = -1.0;     //!< traced runs: server-side timings
    double runMs = -1.0;
};

std::string
member(const JsonValue &v, const std::string &key)
{
    const JsonValue *m = v.find(key);
    if (!m)
        return "";
    return m->isString() ? m->asString() : m->scalarText();
}

/** Submit @p spec and wait for its result bytes. */
Sample
request(uint16_t port, const Item &item, Clock::time_point origin,
        SpanLog *log, uint64_t op)
{
    Sample s;
    s.distinct = item.distinct;
    s.repeat = item.repeat;
    Clock::time_point t0 = Clock::now();
    ScopedSpan root(log, "bench", "request", op);
    HttpResult sub;
    {
        ScopedSpan span(log, "serve", "POST /jobs", op, root.id());
        sub = httpRequest(port, "POST", "/jobs", item.spec);
    }
    s.submit = secondsSince(t0);
    if (sub.status != 202) {
        std::cerr << "perfbench: submit answered " << sub.status << ": "
                  << sub.body << "\n";
        return s;
    }
    JsonValue doc = JsonValue::parse(sub.body);
    s.id = static_cast<uint64_t>(doc.find("id")->asNumber());
    s.cached = member(doc, "cached") == "true";
    std::string state = member(doc, "state");
    const std::string job = "/jobs/" + std::to_string(s.id);
    if (state != "done") {
        ScopedSpan span(log, "serve", "GET /stream", op, root.id());
        std::string err;
        int code = httpStreamLines(port, job + "/stream",
                                   [&](const std::string &line) {
            state = member(JsonValue::parse(line), "state");
            return state == "queued" || state == "running";
        }, err);
        if (code != 200 || state != "done") {
            std::cerr << "perfbench: job " << s.id << " ended " << state
                      << " " << err << "\n";
            return s;
        }
    }
    Clock::time_point t2 = Clock::now();
    HttpResult res;
    {
        ScopedSpan span(log, "serve", "GET /result", op, root.id());
        res = httpRequest(port, "GET", job + "/result");
    }
    s.fetch = secondsSince(t2);
    s.latency = secondsSince(t0);
    s.end = secondsSince(origin);
    if (res.status != 200) {
        std::cerr << "perfbench: result answered " << res.status << "\n";
        return s;
    }
    s.hash = fnv1a(res.body);
    s.ok = true;
    return s;
}

/** Submit @p spec and block until it is done. */
void
runToDone(uint16_t port, const std::string &spec)
{
    HttpResult sub = httpRequest(port, "POST", "/jobs", spec);
    if (sub.status != 202)
        throw std::runtime_error("warm-up submit answered " +
                                 std::to_string(sub.status));
    JsonValue doc = JsonValue::parse(sub.body);
    std::string state = member(doc, "state");
    std::string err;
    if (state != "done")
        httpStreamLines(port, "/jobs/" + member(doc, "id") + "/stream",
                        [&](const std::string &line) {
            state = member(JsonValue::parse(line), "state");
            return state == "queued" || state == "running";
        }, err);
    if (state != "done")
        throw std::runtime_error("warm-up job ended " + state);
}

/** Server-side queue wait and run time of job @p s.id, from its
 *  /jobs/<id>/trace document (fetched right away: the server keeps
 *  only the newest terminal jobs). */
void
jobTimings(uint16_t port, Sample &s)
{
    HttpResult r = httpRequest(port, "GET",
                               "/jobs/" + std::to_string(s.id) + "/trace");
    if (r.status != 200)
        return;
    JsonValue doc = JsonValue::parse(r.body);
    const JsonValue *events = doc.find("traceEvents");
    if (!events)
        return;
    for (const JsonValue &e : events->items()) {
        std::string name = member(e, "name");
        const JsonValue *dur = e.find("dur");
        if (!dur)
            continue;
        if (name == "job.queued")
            s.queuedMs = dur->asNumber() / 1e3;
        else if (name == "job " + std::to_string(s.id) + " run")
            s.runMs = dur->asNumber() / 1e3;
    }
}

/** The closed-loop traffic of one measured window. */
struct Window
{
    std::vector<Sample> samples;
    double wall = 0.0;
};

/** Send requests @p next, @p next + 1, ... of @p traffic, each after
 *  the previous one completed, for @p seconds. */
Window
drive(uint16_t port, Traffic &traffic, std::size_t &next, double seconds,
      SpanLog *log)
{
    Window w;
    Clock::time_point origin = Clock::now();
    while (secondsSince(origin) < seconds) {
        std::size_t i = next++;
        Sample s;
        try {
            s = request(port, traffic.at(i), origin, log, i + 1);
            if (log && s.ok && !s.cached)
                jobTimings(port, s);
        } catch (const std::exception &e) {
            std::cerr << "perfbench: request failed: " << e.what() << "\n";
            s.end = secondsSince(origin);
        }
        w.samples.push_back(s);
    }
    w.wall = secondsSince(origin);
    return w;
}

/** The value at "/"-separated @p path under the "metrics" object
 *  of a /metrics JSON document (0 if absent). */
double
metricsValue(const JsonValue &doc, const std::string &path)
{
    const JsonValue *v = doc.find("metrics");
    std::size_t from = 0;
    while (v && v->isObject()) {
        std::size_t to = path.find('/', from);
        v = v->find(path.substr(from, to - from));
        if (to == std::string::npos)
            break;
        from = to + 1;
    }
    return v && v->isNumber() ? v->asNumber() : 0.0;
}

} // namespace

RunResult
runServeWorkload(const RunOptions &opts)
{
    RunResult out;
    const std::size_t insts = opts.tiny ? 4000 : 800000;
    SpanLog log;
    SpanLog *tlog = opts.trace ? &log : nullptr;

    // The daemon keeps its counters live whatever the batch-tool
    // default is; so does this in-process copy.
    obs::setEnabled(true);

    // Untimed pre-step: decode every program once and persist the
    // artifacts the server will map at start-up. One program at a
    // time, so the pre-step's own peak stays below the server's and
    // peak_rss_mb reads the server.
    const std::string dir = opts.workDir + "/artifacts";
    std::filesystem::create_directories(dir);
    const ICacheConfig geom = SimConfig::paperDefault().engine.icache;
    ArtifactStore store(dir);
    ThreadPool pool(opts.workers);
    for (std::size_t i = 0; i < kPrograms.size(); ++i) {
        InMemoryTrace trace;
        {
            ScopedSpan s(tlog, "workload", "specTrace", 0);
            trace = specTrace(kPrograms[i], insts);
        }
        DecodedTrace dec;
        {
            ScopedSpan s(tlog, "trace", "DecodedTrace::build", 0);
            dec = DecodedTrace::build(trace, geom);
        }
        store.save(ArtifactKey::of(kPrograms[i], insts, geom), dec);
    }

    ServerConfig cfg;
    // Half the cores: a job waits for its slowest replay task, and
    // with a task on every core a stall on any one of them (another
    // tenant of the host, or the client and connection threads)
    // stretches the job.
    cfg.limits.threads = std::max(1u, opts.workers / 2);
    cfg.limits.batchedReplay = true;
    cfg.artifactDir = dir;
    std::ostringstream warm;
    warm << "{\"name\": \"warm-up\", \"benchmarks\": [";
    for (std::size_t i = 0; i < kPrograms.size(); ++i)
        warm << (i ? ", " : "") << "\"" << kPrograms[i] << "\"";
    warm << "], \"instructions\": " << insts << "}";

    // Set-up: restart the server on the filled directory, until
    // setupMedian has enough samples; the last one serves.
    std::unique_ptr<SweepServer> server;
    const double setup = setupMedian(
        [&] {
            server->stop();
            server.reset();
        },
        [&] {
            server = std::make_unique<SweepServer>(cfg);
            server->start();
            runToDone(server->port(), warm.str());
        });
    const uint16_t port = server->port();

    Traffic traffic(opts.seed, insts);
    std::size_t next = 0;
    LayerValues L;
    std::vector<double> rtt;
    if (opts.trace) {
        for (int i = 0; i < 200; ++i) {
            Clock::time_point t0 = Clock::now();
            HttpResult r = httpRequest(port, "GET", "/healthz");
            rtt.push_back(secondsSince(t0) * 1e6);
            if (r.status != 200)
                out.mismatch("/healthz answered " +
                             std::to_string(r.status));
        }
    }
    // The measured window (traced: the spans of the same traffic).
    Window win = drive(port, traffic, next,
                       opts.trace ? opts.seconds * 0.5 : opts.seconds,
                       tlog);
    double rss = peakRssMb();

    std::vector<Sample> all = win.samples;
    if (opts.trace) {
        // The same traffic untraced, then with the obs layer off (the
        // daemon never runs so; this isolates its cost).
        JsonValue m0 =
            JsonValue::parse(httpRequest(port, "GET", "/metrics").body);
        Window plain = drive(port, traffic, next, opts.seconds * 0.2,
                             nullptr);
        JsonValue m1 =
            JsonValue::parse(httpRequest(port, "GET", "/metrics").body);
        auto delta = [&](const std::string &name) {
            return metricsValue(m1, name) - metricsValue(m0, name);
        };
        obs::setEnabled(false);
        Window bare = drive(port, traffic, next, opts.seconds * 0.2,
                            nullptr);
        obs::setEnabled(true);
        all.insert(all.end(), plain.samples.begin(), plain.samples.end());
        all.insert(all.end(), bare.samples.begin(), bare.samples.end());

        auto latencies = [](const Window &w) {
            std::vector<double> v;
            for (const Sample &s : w.samples)
                if (s.ok)
                    v.push_back(s.latency);
            return v;
        };
        std::vector<double> submit, fetch, queued, run;
        std::size_t hits = 0, repeats = 0;
        for (const Sample &s : win.samples) {
            if (!s.ok)
                continue;
            submit.push_back(s.submit * 1e6);
            fetch.push_back(s.fetch * 1e6);
            hits += s.cached;
            repeats += s.repeat;
            if (s.queuedMs >= 0.0)
                queued.push_back(s.queuedMs);
            if (s.runMs >= 0.0)
                run.push_back(s.runMs);
        }
        // Spans carry request index + 1; the traced window issued
        // the first requests of the sequence.
        std::vector<uint64_t> ops;
        for (std::size_t i = 0; i < win.samples.size(); ++i)
            ops.push_back(i + 1);
        double n = static_cast<double>(win.samples.size());
        double requests = delta("counters/trace.cache.decoded_requests");
        double loads = delta("counters/artifact.store.hits") +
                       delta("counters/trace.cache.decoded_builds");

        L["workload.generate_ns_per_inst"] =
            log.totalSeconds("specTrace") /
            (static_cast<double>(log.count("specTrace")) * insts) * 1e9;
        L["trace.decode_ns_per_inst"] =
            log.totalSeconds("DecodedTrace::build") /
            (static_cast<double>(log.count("DecodedTrace::build")) *
             insts) * 1e9;
        double load_s = 0.0, bytes = 0.0;
        for (const std::string &p : kPrograms) {
            ArtifactKey key = ArtifactKey::of(p, insts, geom);
            Clock::time_point t0 = Clock::now();
            std::shared_ptr<const DecodedTrace> dec =
                loadDecodedArtifact(store.pathFor(key), key, geom);
            load_s += secondsSince(t0);
            if (!dec) {
                out.mismatch("artifact of " + p + " did not load");
                continue;
            }
            bytes += static_cast<double>(dec->bytes());
        }
        double all_insts = static_cast<double>(insts * kPrograms.size());
        L["trace.decoded_bytes_per_inst"] = bytes / all_insts;
        L["trace.artifact_load_ns_per_inst"] = load_s / all_insts * 1e9;
        L["core.decoded_requests"] = requests;
        if (requests > 0)
            L["core.decoded_hit_ratio"] =
                1.0 - std::min(loads, requests) / requests;
        kernelLedger(opts, L);
        double lanes = delta("counters/sweep.soa.lanes.total");
        L["sweep.soa_lanes"] = lanes;
        if (lanes > 0)
            L["sweep.soa_lane_share"] =
                delta("counters/sweep.soa.lanes.eligible") / lanes;
        L["sweep.pool_utilization"] =
            delta("histograms/sweep.job_ns/sum") / 1e9 /
            (plain.wall * cfg.limits.threads);
        L["obs.metrics_overhead_ratio"] =
            median(latencies(plain)) / median(latencies(bare));
        L["serve.http_rtt_us"] = median(rtt);
        L["serve.submit_us"] = median(submit);
        L["serve.result_fetch_us"] = median(fetch);
        L["serve.queue_wait_ms"] = median(queued);
        L["serve.job_run_ms"] = median(run);
        L["serve.submits"] = n;
        L["serve.result_cache_hit_ratio"] = static_cast<double>(hits) / n;
        L["serve.spec_repeat_share"] = static_cast<double>(repeats) / n;
        std::map<std::string, double> self = log.selfSeconds(ops);
        for (const auto &[layer, secs] : self)
            L["self_ms." + layer] = secs / n * 1e3;
        std::vector<double> covered;
        for (uint64_t op : ops)
            covered.push_back(log.coveredSeconds(op));
        L["self_ms.other"] =
            (median(latencies(plain)) - median(covered)) * 1e3;
        L["bench.trace_overhead_ratio"] =
            median(latencies(win)) / median(latencies(plain));
    }
    server->stop();
    server.reset();

    // Correctness gate: every result equals the in-process runSweep
    // report of its spec, batched as the server runs it. The first
    // kUnbatchedChecks specs are also replayed unbatched, which must
    // give the same bytes (all of them would add half the run's
    // length again).
    constexpr std::size_t kUnbatchedChecks = 16;
    TraceCache ref_cache(insts);
    const std::vector<std::string> &specs = traffic.distinct();
    std::vector<uint64_t> want(specs.size());
    std::vector<bool> used(specs.size());
    for (const Sample &s : all)
        if (s.ok)
            used[s.distinct] = true;
    double report_s = 0.0, report_bytes = 0.0;
    std::vector<std::size_t> unbatched_differs;
    std::mutex report_mutex;
    parallelFor(pool, specs.size(), [&](std::size_t i) {
        if (!used[i])
            return;
        SweepSpec spec = SweepSpec::fromJson(specs[i]);
        SweepOptions so;
        so.threads = 1;
        so.batchedReplay = true;
        SweepResult res = runSweep(spec, ref_cache, so);
        Clock::time_point t0 = Clock::now();
        std::string doc = sweepToJson(res) + "\n";
        double dt = secondsSince(t0);
        want[i] = fnv1a(doc);
        bool differs = false;
        if (i < kUnbatchedChecks) {
            so.batchedReplay = false;
            differs = sweepToJson(runSweep(spec, ref_cache, so)) + "\n" !=
                      doc;
        }
        std::lock_guard<std::mutex> lock(report_mutex);
        report_s += dt;
        report_bytes += static_cast<double>(doc.size());
        if (differs)
            unbatched_differs.push_back(i);
    });
    for (std::size_t i : unbatched_differs)
        out.mismatch("spec " + std::to_string(i) +
                     ": batched report differs from the "
                     "batchedReplay=false path");

    // Latency: the median over the requests that completed after
    // the first tenth of the window (the client's start-up transient
    // is left out). Throughput: the median completion rate over
    // consecutive windows of those requests; a window's rate counts
    // its completions since the previous window's last one (the
    // first window: since its own first, which it does not count).
    std::vector<double> lat;
    std::vector<double> steady;
    std::vector<double> ends;
    std::size_t repeats = 0;
    for (const Sample &s : win.samples) {
        ++out.attempted;
        if (!s.ok) {
            ++out.failed;
            continue;
        }
        lat.push_back(s.latency);
        repeats += s.repeat;
        if (s.end >= opts.seconds / 10.0) {
            steady.push_back(s.latency);
            ends.push_back(s.end);
        }
    }
    std::sort(ends.begin(), ends.end());
    std::vector<double> rates;
    for (auto [first, last] : sampleWindows(ends.size())) {
        if (last - first < 2)
            continue;
        double n = static_cast<double>(last - first - (first ? 0 : 1));
        double span = ends[last - 1] - ends[first ? first - 1 : first];
        if (span > 0.0)
            rates.push_back(n / span);
    }
    for (const Sample &s : all)
        if (s.ok && s.hash != want[s.distinct])
            out.mismatch("job " + std::to_string(s.id) +
                         ": result differs from in-process runSweep");
    std::cout << "info: " << lat.size()
              << " requests completed (latency sample count); p90 "
              << quantile(lat, 0.90) * 1e3 << " ms, p99 "
              << quantile(lat, 0.99) * 1e3
              << " ms (not gated: too noisy run to run); "
              << "measured spec repeat share "
              << static_cast<double>(repeats) /
                     static_cast<double>(win.samples.size())
              << " (target " << 1.0 / kRepeatEvery << ")\n";

    if (!opts.trace) {
        out.metric("throughput_mcinsts_s",
                   median(rates) * static_cast<double>(traffic.work()) /
                       1e6,
                   "Minst/s");
        out.metric("setup_s", setup, "s");
        out.metric("peak_rss_mb", rss, "MiB");
        out.metric("latency_p50_ms", median(steady) * 1e3, "ms");
    } else {
        std::size_t used_n = 0;
        for (bool u : used)
            used_n += u;
        L["sweep.report_ns_per_byte"] = report_s / report_bytes * 1e9;
        L["sweep.report_bytes"] = report_bytes / static_cast<double>(used_n);
        L["bench.ops_failed_ratio"] = static_cast<double>(out.failed) /
                                      static_cast<double>(out.attempted);
        emitLayerMetrics(opts, L, out);
        log.write(opts.outDir + "/spans-" + opts.workload + "-" +
                  std::to_string(opts.seed) + ".json");
    }
    std::filesystem::remove_all(dir);
    return out;
}

} // namespace perfbench
