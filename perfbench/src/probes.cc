/**
 * @file
 * The per-layer metric sink and the kernel ledger probe.
 */

#include <set>
#include <stdexcept>

#include "common.hh"
#include "core/fetch_simulator.hh"
#include "fetch/two_ahead_engine.hh"
#include "sweep/batch_replay.hh"
#include "trace/decoded_trace.hh"
#include "util/simd.hh"
#include "workload/spec95.hh"

namespace perfbench
{

using namespace mbbp;

namespace
{

const char *const kKinds[] = { "single", "dual", "multi", "two_ahead" };

/** Median wall seconds of @p reps calls of @p fn. */
template <typename Fn>
double
timeMedian(int reps, Fn fn)
{
    std::vector<double> secs;
    for (int r = 0; r < reps; ++r) {
        Clock::time_point t0 = Clock::now();
        fn();
        secs.push_back(secondsSince(t0));
    }
    return median(secs);
}

} // namespace

void
emitLayerMetrics(const RunOptions &opts, const LayerValues &values,
                 RunResult &out)
{
    std::set<std::string> listed;
    for (const auto &[name, unit] : opts.perLayer) {
        listed.insert(name);
        auto it = values.find(name);
        out.metric(name, it == values.end() ? 0.0 : it->second, unit);
    }
    for (const auto &[name, value] : values)
        if (!listed.count(name))
            throw std::logic_error("per-layer metric " + name +
                                   " is not listed in BENCHMARK.json");
}

void
kernelLedger(const RunOptions &opts, LayerValues &values)
{
    const std::size_t insts = opts.tiny ? 4000 : 200000;
    const unsigned lanes = 8;
    const int reps = 3;
    InMemoryTrace trace = specTrace("gcc", insts);
    DecodedTrace dec = DecodedTrace::build(trace, FetchEngineConfig{}.icache);
    const BatchEngineKind kinds[] = { BatchEngineKind::Single,
                                      BatchEngineKind::Dual,
                                      BatchEngineKind::Multi,
                                      BatchEngineKind::TwoAhead };
    const unsigned blocks[] = { 1, 2, 3, 2 };
    const simd::Level wide = simd::activeLevel();
    const double per = static_cast<double>(insts) * lanes / 1e9;

    for (int k = 0; k < 4; ++k) {
        BatchEngineKind kind = kinds[k];
        std::vector<FetchEngineConfig> soa(lanes);
        for (unsigned l = 0; l < lanes; ++l)
            soa[l].historyBits = 6 + l;
        // The reference tier is reachable from outside only through
        // configs the columnar kernels refuse: BTB target arrays for
        // the select-table kinds. Two-ahead lanes fall back only for
        // doubleSelect, which aborts the process, so that cell is
        // left at 0.
        std::vector<FetchEngineConfig> ref = soa;
        for (FetchEngineConfig &c : ref)
            c.targetKind = TargetKind::Btb;
        std::string key =
            std::string("sweep.kernel_ns_per_inst_config.") + kKinds[k];

        values[key + ".soa_wide"] = timeMedian(reps, [&] {
            batchReplayKind(kind, soa, blocks[k], dec);
        }) / per;
        simd::setLevel(simd::Level::Scalar);
        values[key + ".soa_scalar"] = timeMedian(reps, [&] {
            batchReplayKind(kind, soa, blocks[k], dec);
        }) / per;
        simd::setLevel(wide);
        if (kind != BatchEngineKind::TwoAhead)
            values[key + ".reference"] = timeMedian(reps, [&] {
                batchReplayKind(kind, ref, blocks[k], dec);
            }) / per;
        values[key + ".solo"] = timeMedian(reps, [&] {
            for (const FetchEngineConfig &c : soa) {
                if (kind == BatchEngineKind::TwoAhead) {
                    TwoAheadEngine(c).run(dec);
                } else {
                    SimConfig sc;
                    sc.engine = c;
                    sc.numBlocks = blocks[k];
                    FetchSimulator(sc).run(dec);
                }
            }
        }) / per;
    }
}

} // namespace perfbench
