/**
 * @file
 * perfbench: the repository's end-to-end benchmark driver.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             --out-dir DIR --benchmark BENCHMARK.json [--tiny]
 *
 * Workloads: cold_suite, design_space, realism (sweeps, see
 * sweeps.cc) and serve_mixed (the sweep service, see serve.cc).
 * Prints the host/build fingerprint and informational lines, then,
 * as the last stdout line, one JSON object with the keys correct,
 * attempted, failed and metrics: the end-to-end metrics untraced
 * (--trace 0), the per-layer metrics traced (--trace 1), whose names
 * and units are read from BENCHMARK.json's per_layer list. Exits 1
 * when the correctness gate fails, 2 on bad usage.
 */

#include <unistd.h>

#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "common.hh"
#include "util/json.hh"

using namespace perfbench;

namespace
{

int
usage()
{
    std::cerr << "usage: perfbench --workload cold_suite|design_space|"
                 "realism|serve_mixed --seed N --seconds S --trace 0|1 "
                 "--out-dir DIR --benchmark BENCHMARK.json [--tiny]\n";
    return 2;
}

/** The (name, unit) pairs of @p path's per_layer list. */
std::vector<std::pair<std::string, std::string>>
perLayerMetrics(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::ostringstream text;
    text << in.rdbuf();
    mbbp::JsonValue doc = mbbp::JsonValue::parse(text.str());
    const mbbp::JsonValue *list = doc.find("per_layer");
    if (!list || !list->isArray())
        throw std::runtime_error(path + ": no per_layer list");
    std::vector<std::pair<std::string, std::string>> out;
    for (const mbbp::JsonValue &m : list->items()) {
        const mbbp::JsonValue *name = m.find("name");
        const mbbp::JsonValue *unit = m.find("unit");
        if (!name || !unit)
            throw std::runtime_error(path + ": per_layer entry without "
                                            "name or unit");
        out.emplace_back(name->asString(), unit->asString());
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    RunOptions opts;
    std::string benchmark;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        bool has_value = i + 1 < argc;
        if (arg == "--tiny") {
            opts.tiny = true;
        } else if (!has_value) {
            return usage();
        } else if (arg == "--workload") {
            opts.workload = argv[++i];
        } else if (arg == "--seed") {
            opts.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--seconds") {
            opts.seconds = std::strtod(argv[++i], nullptr);
        } else if (arg == "--trace") {
            opts.trace = std::string(argv[++i]) == "1";
        } else if (arg == "--out-dir") {
            opts.outDir = argv[++i];
        } else if (arg == "--benchmark") {
            benchmark = argv[++i];
        } else {
            return usage();
        }
    }
    const bool sweep = opts.workload == "cold_suite" ||
                       opts.workload == "design_space" ||
                       opts.workload == "realism";
    if ((!sweep && opts.workload != "serve_mixed") ||
        opts.outDir.empty() || benchmark.empty() ||
        !(opts.seconds > 0.0))
        return usage();
    try {
        opts.perLayer = perLayerMetrics(benchmark);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 2;
    }

    opts.workers = std::max(1u, std::thread::hardware_concurrency());
    opts.workDir =
        opts.outDir + "/work-" + std::to_string(::getpid());
    std::filesystem::create_directories(opts.workDir);

    std::cout << "fingerprint: " << fingerprintJson(opts) << std::endl;
    int status = 0;
    try {
        RunResult res = sweep ? runSweepWorkload(opts)
                              : runServeWorkload(opts);
        std::cout << res.json() << std::endl;
        status = res.correct ? 0 : 1;
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        status = 1;
    }
    std::filesystem::remove_all(opts.workDir);
    return status;
}
