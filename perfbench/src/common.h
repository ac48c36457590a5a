/**
 * @file
 * Shared plumbing of the end-to-end benchmark: run options, the report
 * each workload fills in, timing and statistics helpers.
 *
 * Every workload runs in its own process (perfbench/run.py starts one
 * per invocation). An untraced run (--trace 0) fills the end-to-end
 * half of the Report; a traced run (--trace 1) fills the per-layer
 * half, timing each call into ntt / rns / engine / net from this
 * benchmark's own files (see trace.h and ladder.h).
 */
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include <sys/resource.h>

#include "core/backend.h"
#include "rns/rns.h"

namespace perfbench {

struct Options
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 10;
    bool trace = false;
    /** Chrome-trace JSON written at the end of a traced run. */
    std::string trace_out;
    /** Source revision recorded in the output (given by run.py). */
    std::string revision = "unknown";
};

struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** What a workload measured; main.cc turns it into the output. */
struct Report
{
    uint64_t attempted = 0;
    /** Failed, refused, shed, missing or mismatched ops. */
    uint64_t failed = 0;
    /** Subset of failed whose result differed from the reference. */
    uint64_t mismatches = 0;
    /** When the measured loop started (nowNs clock). */
    uint64_t start_ns = 0;
    /** Latency of every OK op, ns, in issue order. */
    std::vector<uint64_t> latency_ns;
    /** Completion time of each op in latency_ns (nowNs clock). */
    std::vector<uint64_t> done_ns;
    /** Every set-up the run performed, s (main.cc reports the median). */
    std::vector<double> setup_s;
    /** Per-layer metrics (traced runs only). */
    std::vector<Metric> layer;
    /** Recorded configuration: key -> JSON value text. */
    std::vector<std::pair<std::string, std::string>> config;
};

inline uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** splitmix64 step: derives independent operand seeds from --seed. */
inline uint64_t
mixSeed(uint64_t seed, uint64_t stream)
{
    uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** Nearest-rank quantile of an ascending-sorted sample (p in (0, 1]). */
template <typename T>
double
quantileSorted(const std::vector<T>& sorted, double p)
{
    if (sorted.empty())
        return 0;
    const size_t n = sorted.size();
    size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(n)));
    rank = std::clamp<size_t>(rank, 1, n);
    return static_cast<double>(sorted[rank - 1]);
}

template <typename T>
double
median(std::vector<T> values)
{
    std::sort(values.begin(), values.end());
    return quantileSorted(values, 0.5);
}

/**
 * The highest of p90 / p99 / p99.9 with at least ten samples beyond
 * it (falls back to the median for tiny samples).
 */
struct Tail
{
    double value = 0;
    size_t beyond = 0;
    std::string label = "p50";
};

inline Tail
tailOf(const std::vector<uint64_t>& sorted)
{
    const size_t n = sorted.size();
    const std::pair<double, const char*> levels[] = {
        {0.999, "p99.9"}, {0.99, "p99"}, {0.9, "p90"}};
    for (const auto& [p, label] : levels) {
        const size_t rank =
            static_cast<size_t>(std::ceil(p * static_cast<double>(n)));
        if (rank >= 1 && rank + 10 <= n)
            return Tail{quantileSorted(sorted, p), n - rank, label};
    }
    return Tail{quantileSorted(sorted, 0.5), n / 2, "p50"};
}

/** Process CPU time (user + sys) so far, ns. */
inline uint64_t
cpuNs()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto ns = [](const timeval& tv) {
        return static_cast<uint64_t>(tv.tv_sec) * 1000000000ull +
               static_cast<uint64_t>(tv.tv_usec) * 1000ull;
    };
    return ns(ru.ru_utime) + ns(ru.ru_stime);
}

/** getrusage max resident set size, MiB. */
inline double
rssPeakMib()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/** Word-for-word equality of every channel. */
inline bool
samePolynomial(const mqx::rns::RnsPolynomial& a,
               const mqx::rns::RnsPolynomial& b)
{
    if (a.n() != b.n() || a.basis().size() != b.basis().size())
        return false;
    for (size_t c = 0; c < a.basis().size(); ++c)
        if (a.channel(c) != b.channel(c))
            return false;
    return true;
}

/**
 * The fastest correct kernel tier on the running CPU, chosen here
 * rather than by the library default: AVX-512, then AVX2, then Scalar.
 */
inline mqx::Backend
hostBestBackend()
{
    for (mqx::Backend b : {mqx::Backend::Avx512, mqx::Backend::Avx2})
        if (mqx::backendAvailable(b))
            return b;
    return mqx::Backend::Scalar;
}

inline std::string
jsonString(const std::string& s)
{
    std::string out = "\"";
    for (char ch : s) {
        if (ch == '"' || ch == '\\')
            out += '\\';
        if (static_cast<unsigned char>(ch) >= 0x20)
            out += ch;
    }
    return out + "\"";
}

inline std::string
jsonNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

/** Workload entry points (engine_workloads.cc, service_workload.cc). */
int runPolymul32k(const Options& opt, Report& report);
int runFma8_4k(const Options& opt, Report& report);
int runSvcOpen1k(const Options& opt, Report& report);

} // namespace perfbench
