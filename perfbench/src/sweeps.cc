/**
 * @file
 * The three sweep workloads (cold_suite, design_space, realism).
 *
 * Untraced run: parse the seeded spec, warm traces where the
 * workload says so (setup), then run spec -> runSweep (batched, one
 * pool of `workers`) -> sweepToJson + sweepToCsv back to back for
 * the measured window. The correctness gate, outside the window,
 * compares those report bytes with the unbatched path on the same
 * inputs.
 *
 * Traced run: the same spec, first through runSweep untraced (the
 * overhead base) and with the obs layer on (the daemon's setting),
 * then driven layer by layer -- specTrace -> DecodedTrace::build ->
 * group by BatchKey -> planBatchTiles -> batchReplay /
 * FetchSimulator::run -> sweepToJson/sweepToCsv -- with a span
 * around every call, plus the artifact-load and kernel probes.
 */

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>

#include "common.hh"
#include "core/fetch_simulator.hh"
#include "core/suite_runner.hh"
#include "obs/obs.hh"
#include "sweep/batch_replay.hh"
#include "sweep/sweep_report.hh"
#include "sweep/sweep_runner.hh"
#include "sweep/sweep_spec.hh"
#include "sweep/thread_pool.hh"
#include "trace/artifact_file.hh"
#include "trace/decoded_trace.hh"
#include "workload/spec95.hh"

namespace perfbench
{

using namespace mbbp;

namespace
{

/** A sweep workload's inputs, drawn from the seed. */
struct SweepWorkload
{
    std::string specJson;
    std::vector<std::string> programs;
    std::size_t insts = 0;
    bool warm = false;      //!< traces built in setup, not per op
};

std::string
quoted(const std::string &s)
{
    return "\"" + s + "\"";
}

/**
 * The seed permutes the order of every axis's values (so job order,
 * and with it which configs share a tile, changes) and lengthens
 * every trace by 0 to 0.7%. Program order stays fixed: it decides
 * which task ends the schedule, and a seed that moved the makespan
 * would be measuring the draw, not the code.
 */
SweepWorkload
makeSweepWorkload(const RunOptions &opts)
{
    using Axis = std::pair<std::string, std::vector<std::string>>;
    SweepWorkload w;
    std::vector<Axis> axes;
    std::vector<std::pair<std::string, std::string>> base;
    if (opts.workload == "cold_suite") {
        w.programs = specAllNames();
        w.insts = opts.tiny ? 4000 : 100000;
        base = { { "numBlocks", "2" } };
        axes = { { "historyBits", { "10", "12" } } };
    } else if (opts.workload == "design_space") {
        w.programs = { "gcc", "compress", "swim", "tomcatv" };
        w.insts = opts.tiny ? 4000 : 64000;
        w.warm = true;
        axes = { { "numBlocks", { "1", "2", "3" } },
                 { "historyBits", { "6", "8", "10", "12" } },
                 { "numSelectTables", { "1", "2", "4", "8" } },
                 { "bitEntries", { "64", "1024" } } };
    } else {    // realism
        w.programs = { "gcc", "go", "perl", "li" };
        w.insts = opts.tiny ? 4000 : 150000;
        w.warm = true;
        base = { { "numBlocks", "2" } };
        axes = { { "icacheLines", { "0", "128", "512", "4096" } },
                 { "targetKind", { "nls", "btb" } },
                 { "targetEntries", { "64", "256" } } };
    }

    SeedRng rng(opts.seed);
    for (Axis &a : axes)
        rng.shuffle(a.second);
    w.insts += w.insts / 2048 * rng.below(16);

    std::ostringstream js;
    js << "{\"name\": " << quoted(opts.workload) << ", \"benchmarks\": [";
    for (std::size_t i = 0; i < w.programs.size(); ++i)
        js << (i ? ", " : "") << quoted(w.programs[i]);
    js << "], \"instructions\": " << w.insts << ", \"base\": {";
    for (std::size_t i = 0; i < base.size(); ++i)
        js << (i ? ", " : "") << quoted(base[i].first) << ": "
           << base[i].second;
    js << "}, \"grid\": {";
    for (std::size_t i = 0; i < axes.size(); ++i) {
        js << (i ? ", " : "") << quoted(axes[i].first) << ": [";
        for (std::size_t k = 0; k < axes[i].second.size(); ++k) {
            const std::string &v = axes[i].second[k];
            bool numeric = v.find_first_not_of("0123456789") ==
                           std::string::npos;
            js << (k ? ", " : "") << (numeric ? v : quoted(v));
        }
        js << "]";
    }
    js << "}}";
    w.specJson = js.str();
    return w;
}

/** Both report documents of one sweep. */
struct Report
{
    std::string json;
    std::string csv;

    bool operator==(const Report &) const = default;
    std::size_t bytes() const { return json.size() + csv.size(); }
};

Report
reportOf(const SweepResult &res)
{
    return { sweepToJson(res), sweepToCsv(res) };
}

/** Set-up: parse the spec, start a pool of `workers` threads for
 *  the benchmark's own parallel steps and, for warm workloads, build
 *  every program's trace and decoded artifact on it. */
struct Prepared
{
    SweepSpec spec;
    std::unique_ptr<ThreadPool> pool;
    std::unique_ptr<TraceCache> cache;
    ICacheConfig geom;
    std::size_t configs = 0;
};

void
prepare(const RunOptions &opts, const SweepWorkload &w, Prepared &p)
{
    p.spec = SweepSpec::fromJson(w.specJson);
    p.pool = std::make_unique<ThreadPool>(opts.workers);
    std::vector<SweepJob> jobs = p.spec.expand();
    p.configs = jobs.size();
    p.geom = jobs.front().config.engine.icache;
    if (w.warm) {
        p.cache = std::make_unique<TraceCache>(w.insts);
        parallelFor(*p.pool, w.programs.size(), [&](std::size_t i) {
            p.cache->decoded(w.programs[i], p.geom);
        });
    }
}

/** Each sweep starts its own pool of `workers` threads, as one
 *  sweep_cli invocation does. */
SweepOptions
sweepOptions(const RunOptions &opts, bool batched)
{
    SweepOptions so;
    so.threads = opts.workers;
    so.batchedReplay = batched;
    return so;
}

/** One timed operation: spec in, report bytes out. A cold workload
 *  gets a fresh TraceCache, torn down after the clock stops. */
struct OpOutcome
{
    Report report;
    SweepResult result;
    double seconds = 0.0;
};

OpOutcome
runOp(const SweepWorkload &w, Prepared &p, const SweepOptions &so)
{
    OpOutcome out;
    std::unique_ptr<TraceCache> fresh;
    Clock::time_point t0 = Clock::now();
    if (!w.warm)
        fresh = std::make_unique<TraceCache>(w.insts);
    TraceCache &tc = w.warm ? *p.cache : *fresh;
    out.result = runSweep(p.spec, tc, so);
    out.report = reportOf(out.result);
    out.seconds = secondsSince(t0);
    return out;
}

/**
 * setup_s of a sweep workload (the last set-up is kept). A warm
 * workload builds its traces here. A cold workload's operation
 * builds them itself, so its set-up is only the spec parse and the
 * pool start.
 */
double
setupSeconds(const RunOptions &opts, const SweepWorkload &w,
             Prepared &p)
{
    return setupMedian([&] { p = Prepared{}; },
                       [&] { prepare(opts, w, p); });
}

/**
 * The correctness gate: @p seen must equal the unbatched path's
 * report on the same inputs. Prints the simulated fetch IPC and BEP
 * as information.
 */
void
gate(const RunOptions &opts, const SweepWorkload &w, Prepared &p,
     const Report &seen, RunResult &out)
{
    std::unique_ptr<TraceCache> fresh;
    if (!w.warm)
        fresh = std::make_unique<TraceCache>(w.insts);
    TraceCache &tc = w.warm ? *p.cache : *fresh;
    SweepResult ref = runSweep(p.spec, tc, sweepOptions(opts, false));
    Report want = reportOf(ref);
    if (!(want == seen))
        out.mismatch(opts.workload +
                     ": batched report bytes differ from the "
                     "batchedReplay=false path");
    FetchStats all;
    for (const SweepJobResult &j : ref.jobs)
        all.accumulate(j.result.allTotal);
    std::cout << "info: simulated fetch over all " << ref.jobs.size()
              << " configs x " << w.programs.size()
              << " programs: IPC_f " << all.ipcF() << ", BEP "
              << all.bep()
              << " (model checked only against the paper bands in "
                 "EXPERIMENTS.md, which come from synthetic traces; "
                 "no hardware-error figure)\n";
}

double
poolUtilization(const SweepResult &res)
{
    double busy = 0.0;
    for (const SweepJobResult &j : res.jobs)
        busy += j.seconds;
    double cap = res.wallSeconds * static_cast<double>(res.threads);
    return cap > 0.0 ? busy / cap : 0.0;
}

uint64_t
counterValue(const obs::Snapshot &s, const std::string &name)
{
    for (const obs::CounterSample &c : s.counters)
        if (c.name == name)
            return c.value;
    return 0;
}

/** A tile (or a lone config) of the layer-driven schedule. */
struct Task
{
    std::vector<std::size_t> jobIdx;
    std::vector<SimConfig> configs;
    bool batched = true;
};

/** What one layer-driven operation measured. */
struct TracedOp
{
    Report report;
    double seconds = 0.0;
    double planSeconds = 0.0;
    std::size_t tiles = 0;
    std::map<std::string, std::shared_ptr<const DecodedTrace>> decoded;
};

/**
 * One operation driven layer by layer, mirroring runSweep's batched
 * schedule: group by BatchKey (singletons replay alone), tile with
 * planBatchTiles, halve the widest tile until the tasks cover the
 * pool, largest first; then assemble the SweepResult and report.
 */
TracedOp
tracedOp(const RunOptions &opts, const SweepWorkload &w,
         const Prepared &p,
         const std::map<std::string, std::shared_ptr<const DecodedTrace>>
             &warm,
         SpanLog &log, uint64_t op)
{
    TracedOp out;
    Clock::time_point t0 = Clock::now();
    ScopedSpan root(&log, "bench", "op", op);
    const std::vector<std::string> &names = w.programs;

    if (w.warm) {
        out.decoded = warm;
    } else {
        std::vector<std::shared_ptr<const DecodedTrace>> decs(names.size());
        parallelFor(*p.pool, names.size(), [&](std::size_t i) {
            InMemoryTrace trace;
            {
                ScopedSpan s(&log, "workload", "specTrace", op, root.id());
                trace = specTrace(names[i], w.insts);
            }
            ScopedSpan s(&log, "trace", "DecodedTrace::build", op,
                         root.id());
            decs[i] = std::make_shared<const DecodedTrace>(
                DecodedTrace::build(trace, p.geom));
        });
        for (std::size_t i = 0; i < names.size(); ++i)
            out.decoded[names[i]] = decs[i];
    }

    std::vector<SweepJob> jobs = p.spec.expand();
    std::vector<Task> tasks;
    {
        ScopedSpan s(&log, "sweep", "planBatchTiles", op, root.id());
        Clock::time_point pt = Clock::now();
        std::map<BatchKey, std::vector<std::size_t>> groups;
        for (std::size_t i = 0; i < jobs.size(); ++i)
            groups[BatchKey::of(jobs[i].config)].push_back(i);
        for (auto &[key, idxs] : groups) {
            if (idxs.size() < 2) {
                tasks.push_back({ idxs, { jobs[idxs[0]].config }, false });
                continue;
            }
            std::vector<SimConfig> cfgs;
            for (std::size_t i : idxs)
                cfgs.push_back(jobs[i].config);
            for (auto [first, count] : planBatchTiles(cfgs)) {
                Task t;
                for (std::size_t k = first; k < first + count; ++k) {
                    t.jobIdx.push_back(idxs[k]);
                    t.configs.push_back(cfgs[k]);
                }
                tasks.push_back(std::move(t));
                ++out.tiles;
            }
        }
        while (tasks.size() * names.size() < opts.workers) {
            auto widest = std::max_element(
                tasks.begin(), tasks.end(),
                [](const Task &a, const Task &b) {
                    return a.jobIdx.size() < b.jobIdx.size();
                });
            if (widest->jobIdx.size() < 2)
                break;
            std::size_t half = widest->jobIdx.size() / 2;
            Task rest;
            rest.jobIdx.assign(widest->jobIdx.begin() + half,
                               widest->jobIdx.end());
            rest.configs.assign(widest->configs.begin() + half,
                                widest->configs.end());
            widest->jobIdx.resize(half);
            widest->configs.resize(half);
            tasks.push_back(std::move(rest));
        }
        std::stable_sort(tasks.begin(), tasks.end(),
                         [](const Task &a, const Task &b) {
                             return a.jobIdx.size() > b.jobIdx.size();
                         });
        out.planSeconds = secondsSince(pt);
    }

    // stats[task][program][lane]
    std::vector<std::vector<std::vector<FetchStats>>> stats(
        tasks.size(),
        std::vector<std::vector<FetchStats>>(names.size()));
    parallelFor(*p.pool, tasks.size() * names.size(),
                [&](std::size_t k) {
        std::size_t ti = k / names.size();
        std::size_t pi = k % names.size();
        const Task &t = tasks[ti];
        const DecodedTrace &dec = *out.decoded.at(names[pi]);
        if (t.batched) {
            ScopedSpan s(&log, "sweep", "batchReplay", op, root.id());
            stats[ti][pi] = batchReplay(t.configs, dec);
        } else {
            ScopedSpan s(&log, "core", "FetchSimulator::run", op,
                         root.id());
            stats[ti][pi] = { FetchSimulator(t.configs[0]).run(dec) };
        }
    });

    SweepResult res;
    {
        ScopedSpan s(&log, "core", "SuiteResult", op, root.id());
        res.name = p.spec.name();
        res.benchmarks = p.spec.benchmarks();
        res.threads = opts.workers;
        res.jobs.resize(jobs.size());
        for (std::size_t ti = 0; ti < tasks.size(); ++ti) {
            for (std::size_t l = 0; l < tasks[ti].jobIdx.size(); ++l) {
                SweepJobResult &slot = res.jobs[tasks[ti].jobIdx[l]];
                slot.job = jobs[tasks[ti].jobIdx[l]];
                for (std::size_t pi = 0; pi < names.size(); ++pi) {
                    const FetchStats &fs = stats[ti][pi][l];
                    slot.result.perProgram[names[pi]] = fs;
                    slot.result.allTotal.accumulate(fs);
                    if (specProfile(names[pi]).isFloat)
                        slot.result.fpTotal.accumulate(fs);
                    else
                        slot.result.intTotal.accumulate(fs);
                }
            }
        }
    }
    {
        ScopedSpan s(&log, "sweep", "sweepToJson+sweepToCsv", op,
                     root.id());
        out.report = reportOf(res);
    }
    out.seconds = secondsSince(t0);
    return out;
}

/** Run @p fn repeatedly for about @p seconds (at least @p min_ops
 *  times), returning each call's wall time. */
template <typename Fn>
std::vector<double>
repeatFor(double seconds, int min_ops, Fn fn)
{
    std::vector<double> secs;
    Clock::time_point t0 = Clock::now();
    while (static_cast<int>(secs.size()) < min_ops ||
           secondsSince(t0) < seconds)
        secs.push_back(fn());
    return secs;
}

void
addSweepEndToEnd(RunResult &out, const SweepWorkload &w,
                 const Prepared &p, double setup,
                 const std::vector<double> &secs, double rss)
{
    // Medians throughout: one operation stalled by the host moves
    // none of them. The tail is information only: it follows the
    // host's CPU steal more than the program.
    double work = static_cast<double>(p.configs) *
                  static_cast<double>(w.programs.size()) *
                  static_cast<double>(w.insts);
    std::cout << "info: " << secs.size()
              << " operations (latency sample count); p90 "
              << quantile(secs, 0.90) * 1e3
              << " ms (not gated: too noisy run to run)\n";
    out.metric("throughput_mcinsts_s", work / median(secs) / 1e6,
               "Minst/s");
    out.metric("setup_s", setup, "s");
    out.metric("peak_rss_mb", rss, "MiB");
    out.metric("latency_p50_ms", median(secs) * 1e3, "ms");
}

RunResult
untracedRun(const RunOptions &opts, const SweepWorkload &w)
{
    RunResult out;
    Prepared p;
    double setup = setupSeconds(opts, w, p);

    // Peak memory is read after the first timed sweep: a CLI process
    // runs one. Later sweeps only add allocator fragmentation that
    // varies from run to run.
    Report first;
    std::vector<double> secs;
    double rss = 0.0;
    Clock::time_point t0 = Clock::now();
    while (secs.empty() || secondsSince(t0) < opts.seconds) {
        ++out.attempted;
        try {
            OpOutcome o = runOp(w, p, sweepOptions(opts, true));
            secs.push_back(o.seconds);
            if (secs.size() == 1) {
                rss = peakRssMb();
                first = std::move(o.report);
            } else if (!(o.report == first)) {
                out.mismatch(opts.workload +
                             ": report bytes changed between runs");
            }
        } catch (const std::exception &e) {
            ++out.failed;
            std::cerr << "perfbench: sweep failed: " << e.what() << "\n";
            if (secs.empty() && secondsSince(t0) >= opts.seconds)
                throw;
        }
    }
    gate(opts, w, p, first, out);
    addSweepEndToEnd(out, w, p, setup, secs, rss);
    return out;
}

RunResult
tracedRun(const RunOptions &opts, const SweepWorkload &w)
{
    RunResult out;
    SpanLog log;
    Prepared p;
    prepare(opts, w, p);

    // Warm artifacts of the layer-driven path, built through the
    // layer functions under spans (operation 0 = setup).
    std::map<std::string, std::shared_ptr<const DecodedTrace>> warm;
    if (w.warm) {
        std::vector<std::shared_ptr<const DecodedTrace>> decs(
            w.programs.size());
        parallelFor(*p.pool, w.programs.size(), [&](std::size_t i) {
            InMemoryTrace trace;
            {
                ScopedSpan s(&log, "workload", "specTrace", 0);
                trace = specTrace(w.programs[i], w.insts);
            }
            ScopedSpan s(&log, "trace", "DecodedTrace::build", 0);
            decs[i] = std::make_shared<const DecodedTrace>(
                DecodedTrace::build(trace, p.geom));
        });
        for (std::size_t i = 0; i < w.programs.size(); ++i)
            warm[w.programs[i]] = decs[i];
    }

    // Untraced base, then the same operations with the obs layer on
    // and a per-operation tracing domain, as the daemon runs jobs.
    Report first;
    std::vector<double> util;
    std::vector<double> plain = repeatFor(opts.seconds * 0.25, 2, [&] {
        ++out.attempted;
        OpOutcome o = runOp(w, p, sweepOptions(opts, true));
        util.push_back(poolUtilization(o.result));
        first = std::move(o.report);
        return o.seconds;
    });
    uint64_t requests = 0;
    uint64_t builds = 0;
    uint64_t lanes = 0;
    uint64_t soa = 0;
    obs::setEnabled(true);
    std::vector<double> with_obs = repeatFor(opts.seconds * 0.15, 2, [&] {
        ++out.attempted;
        obs::Domain dom("perfbench-op", &obs::defaultDomain());
        dom.setTracing(true);
        SweepOptions so = sweepOptions(opts, true);
        so.domain = &dom;
        OpOutcome o = runOp(w, p, so);
        obs::Snapshot snap = dom.snapshot();
        requests += counterValue(snap, "trace.cache.decoded_requests");
        builds += counterValue(snap, "trace.cache.decoded_builds");
        lanes += counterValue(snap, "sweep.soa.lanes.total");
        soa += counterValue(snap, "sweep.soa.lanes.eligible");
        if (!(o.report == first))
            out.mismatch(opts.workload +
                         ": report bytes differ with the obs layer on");
        return o.seconds;
    });
    obs::setEnabled(false);

    // The layer-driven operations.
    std::vector<uint64_t> ops;
    std::vector<double> plan_us;
    std::vector<double> tiles;
    std::vector<double> covered;
    double report_bytes = 0.0;
    TracedOp last;
    std::vector<double> traced = repeatFor(opts.seconds * 0.45, 1, [&] {
        ++out.attempted;
        uint64_t op = ops.size() + 1;
        ops.push_back(op);
        last = tracedOp(opts, w, p, warm, log, op);
        if (!(last.report == first))
            out.mismatch(opts.workload +
                         ": layer-driven report differs from runSweep");
        plan_us.push_back(last.planSeconds * 1e6);
        tiles.push_back(static_cast<double>(last.tiles));
        covered.push_back(log.coveredSeconds(op));
        report_bytes = static_cast<double>(last.report.bytes());
        return last.seconds;
    });
    const double n = static_cast<double>(ops.size());
    const double report_s = log.totalSeconds("sweepToJson+sweepToCsv") / n;

    // Artifact round trip of this workload's decoded traces.
    std::string dir = opts.workDir + "/artifacts-" + opts.workload;
    std::filesystem::create_directories(dir);
    double load_s = 0.0;
    double dec_bytes = 0.0;
    for (const auto &[name, dec] : last.decoded) {
        ArtifactKey key = ArtifactKey::of(name, w.insts, p.geom);
        std::string path = dir + "/" + key.fileName();
        if (!saveDecodedArtifact(path, key, *dec))
            throw std::runtime_error("cannot write " + path);
        Clock::time_point t0 = Clock::now();
        std::shared_ptr<const DecodedTrace> back =
            loadDecodedArtifact(path, key, p.geom);
        load_s += secondsSince(t0);
        if (!back)
            out.mismatch("artifact " + path + " did not load back");
        dec_bytes += static_cast<double>(dec->bytes());
    }
    std::filesystem::remove_all(dir);
    double all_insts = static_cast<double>(w.insts) *
                       static_cast<double>(last.decoded.size());

    double gens = static_cast<double>(log.count("specTrace"));
    double decs = static_cast<double>(log.count("DecodedTrace::build"));
    double insts = static_cast<double>(w.insts);
    LayerValues L;
    L["workload.generate_ns_per_inst"] =
        log.totalSeconds("specTrace") / (gens * insts) * 1e9;
    L["trace.decode_ns_per_inst"] =
        log.totalSeconds("DecodedTrace::build") / (decs * insts) * 1e9;
    L["trace.decoded_bytes_per_inst"] = dec_bytes / all_insts;
    L["trace.artifact_load_ns_per_inst"] = load_s / all_insts * 1e9;
    L["core.decoded_requests"] = static_cast<double>(requests);
    if (requests)
        L["core.decoded_hit_ratio"] =
            1.0 - static_cast<double>(builds) /
                      static_cast<double>(requests);
    kernelLedger(opts, L);
    L["sweep.plan_us"] = median(plan_us);
    L["sweep.tiles"] = median(tiles);
    L["sweep.soa_lanes"] = static_cast<double>(lanes);
    if (lanes)
        L["sweep.soa_lane_share"] =
            static_cast<double>(soa) / static_cast<double>(lanes);
    L["sweep.pool_utilization"] = median(util);
    L["sweep.report_ns_per_byte"] = report_s / report_bytes * 1e9;
    L["sweep.report_bytes"] = report_bytes;
    L["obs.metrics_overhead_ratio"] = median(with_obs) / median(plain);

    std::map<std::string, double> self = log.selfSeconds(ops);
    for (const auto &[layer, secs] : self)
        L["self_ms." + layer] = secs / n * 1e3;
    L["self_ms.other"] = (median(plain) - median(covered)) * 1e3;
    L["bench.trace_overhead_ratio"] = median(traced) / median(plain);

    gate(opts, w, p, first, out);
    L["bench.ops_failed_ratio"] = static_cast<double>(out.failed) /
                                  static_cast<double>(out.attempted);
    emitLayerMetrics(opts, L, out);
    log.write(opts.outDir + "/spans-" + opts.workload + "-" +
              std::to_string(opts.seed) + ".json");
    return out;
}

} // namespace

RunResult
runSweepWorkload(const RunOptions &opts)
{
    SweepWorkload w = makeSweepWorkload(opts);
    return opts.trace ? tracedRun(opts, w) : untracedRun(opts, w);
}

} // namespace perfbench
