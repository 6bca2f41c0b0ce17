#include "common.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "sweep/thread_pool.hh"
#include "util/simd.hh"

namespace perfbench
{

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

namespace
{

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out;
}

/** Shortest text that reads back as the same double. */
std::string
number(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    unsigned max_ext = __get_cpuid_max(0x80000000u, nullptr);
    if (max_ext >= 0x80000004u) {
        for (unsigned i = 0; i < 3; ++i)
            __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        char brand[49] = {};
        std::memcpy(brand, regs, 48);
        std::string s(brand);
        s.erase(0, s.find_first_not_of(' '));
        s.erase(s.find_last_not_of(' ') + 1);
        return s;
    }
#endif
    return "unknown";
}

} // namespace

void
RunResult::metric(const std::string &name, double value,
                  const std::string &unit)
{
    metrics_.push_back({ name, value, unit });
}

void
RunResult::mismatch(const std::string &what)
{
    correct = false;
    std::cerr << "perfbench: correctness gate: " << what << "\n";
}

std::string
RunResult::json() const
{
    std::ostringstream os;
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted
       << ", \"failed\": " << failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        const Entry &e = metrics_[i];
        os << (i ? ", " : "") << "\"" << jsonEscape(e.name)
           << "\": {\"value\": " << number(e.value) << ", \"unit\": \""
           << jsonEscape(e.unit) << "\"}";
    }
    os << "}}";
    return os.str();
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    std::size_t hi = std::min(lo + 1, v.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

std::vector<std::pair<std::size_t, std::size_t>>
sampleWindows(std::size_t n)
{
    constexpr std::size_t kMaxWindows = 20;
    constexpr std::size_t kMinSamples = 25;
    std::size_t k = std::clamp<std::size_t>(n / kMinSamples, 1,
                                            kMaxWindows);
    std::vector<std::pair<std::size_t, std::size_t>> out;
    for (std::size_t i = 0; i < k; ++i)
        out.emplace_back(n * i / k, n * (i + 1) / k);
    return out;
}

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;   // KiB on Linux
}

uint64_t
fnv1a(const std::string &bytes)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

uint64_t
SeedRng::next()
{
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::size_t
SeedRng::below(std::size_t n)
{
    return static_cast<std::size_t>(next() % n);
}

double
SeedRng::unit()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

void
parallelFor(mbbp::ThreadPool &pool, std::size_t n,
            const std::function<void(std::size_t)> &fn)
{
    mbbp::TaskGroup group(pool);
    for (std::size_t i = 0; i < n; ++i)
        group.submit([&fn, i] { fn(i); });
    group.wait();
}

std::string
fingerprintJson(const RunOptions &opts)
{
    std::ostringstream os;
    os << "{\"workload\": \"" << jsonEscape(opts.workload)
       << "\", \"seed\": " << opts.seed
       << ", \"trace\": " << (opts.trace ? 1 : 0)
       << ", \"tiny\": " << (opts.tiny ? "true" : "false")
       << ", \"nproc\": " << std::thread::hardware_concurrency()
       << ", \"workers\": " << opts.workers << ", \"cpu_model\": \""
       << jsonEscape(cpuModel()) << "\", \"simd\": \""
       << mbbp::simd::levelName(mbbp::simd::activeLevel())
       << "\", \"cmake_build_type\": \"" << PERFBENCH_BUILD_TYPE
       << "\", \"mbbp_obs\": \"" << PERFBENCH_OBS << "\"}";
    return os.str();
}

int64_t
SpanLog::begin(const std::string &layer, const std::string &name,
               uint64_t op, int64_t parent)
{
    Span s;
    s.layer = layer;
    s.name = name;
    s.op = op;
    s.parent = parent;
    s.tid = std::hash<std::thread::id>()(std::this_thread::get_id());
    s.t0 = secondsSince(origin_);
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(s));
    return static_cast<int64_t>(spans_.size() - 1);
}

void
SpanLog::end(int64_t id)
{
    double t = secondsSince(origin_);
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(id)].t1 = t;
}

namespace
{

/** Length of the union of [t0, t1) intervals, clipped to [lo, hi). */
double
unionLength(std::vector<std::pair<double, double>> iv, double lo,
            double hi)
{
    std::sort(iv.begin(), iv.end());
    double total = 0.0;
    double cur_lo = 0.0;
    double cur_hi = -1.0;
    for (auto [a, b] : iv) {
        a = std::max(a, lo);
        b = std::min(b, hi);
        if (b <= a)
            continue;
        if (a > cur_hi) {
            if (cur_hi > cur_lo)
                total += cur_hi - cur_lo;
            cur_lo = a;
            cur_hi = b;
        } else {
            cur_hi = std::max(cur_hi, b);
        }
    }
    if (cur_hi > cur_lo)
        total += cur_hi - cur_lo;
    return total;
}

} // namespace

std::map<std::string, double>
SpanLog::selfSeconds(const std::vector<uint64_t> &ops) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::vector<std::pair<double, double>>> children(
        spans_.size());
    for (const Span &s : spans_)
        if (s.parent != kNoParent)
            children[static_cast<std::size_t>(s.parent)].push_back(
                { s.t0, s.t1 });
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        if (s.layer == "bench" ||
            std::find(ops.begin(), ops.end(), s.op) == ops.end())
            continue;
        self[s.layer] += (s.t1 - s.t0) -
                         unionLength(children[i], s.t0, s.t1);
    }
    return self;
}

double
SpanLog::coveredSeconds(uint64_t op) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::pair<double, double>> iv;
    double lo = 1e300;
    double hi = -1e300;
    for (const Span &s : spans_) {
        if (s.op != op)
            continue;
        lo = std::min(lo, s.t0);
        hi = std::max(hi, s.t1);
        if (s.layer != "bench")
            iv.push_back({ s.t0, s.t1 });
    }
    return iv.empty() ? 0.0 : unionLength(iv, lo, hi);
}

double
SpanLog::totalSeconds(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    double total = 0.0;
    for (const Span &s : spans_)
        if (s.name == name)
            total += s.t1 - s.t0;
    return total;
}

std::size_t
SpanLog::count(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return static_cast<std::size_t>(
        std::count_if(spans_.begin(), spans_.end(),
                      [&](const Span &s) { return s.name == name; }));
}

void
SpanLog::write(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream out(path, std::ios::trunc);
    out << "{\"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out << (i ? ",\n" : "") << "{\"name\": \"" << jsonEscape(s.name)
            << "\", \"cat\": \"" << jsonEscape(s.layer)
            << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << (s.tid % 100000)
            << ", \"ts\": " << number(s.t0 * 1e6)
            << ", \"dur\": " << number((s.t1 - s.t0) * 1e6)
            << ", \"args\": {\"id\": " << i << ", \"op\": " << s.op
            << ", \"parent\": " << s.parent << "}}";
    }
    out << "\n]}\n";
}

} // namespace perfbench
