/**
 * @file
 * Timing protocol implementation.
 */
#include "bench_util/protocol.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/config.h"

namespace mqx {

Measurement
runProtocol(const std::function<void()>& kernel, int total_iters,
            int kept_iters)
{
    checkArg(total_iters >= kept_iters && kept_iters >= 1,
             "runProtocol: bad iteration counts");
    std::vector<double> times(static_cast<size_t>(total_iters), 0.0);
    for (int i = 0; i < total_iters; ++i) {
        uint64_t t0 = nowNs();
        kernel();
        uint64_t t1 = nowNs();
        times[static_cast<size_t>(i)] = static_cast<double>(t1 - t0);
    }
    Measurement m;
    m.total_iters = total_iters;
    m.kept_iters = kept_iters;
    double sum = 0.0;
    double best = times.back();
    for (int i = total_iters - kept_iters; i < total_iters; ++i) {
        sum += times[static_cast<size_t>(i)];
        best = std::min(best, times[static_cast<size_t>(i)]);
    }
    m.mean_ns = sum / kept_iters;
    m.min_ns = best;
    return m;
}

namespace {

Measurement
runScaled(const std::function<void()>& kernel, int total, int kept,
          double scale)
{
    checkArg(scale > 0.0 && scale <= 1.0, "protocol scale must be in (0,1]");
    int t = std::max(4, static_cast<int>(std::lround(total * scale)));
    int k = std::max(2, static_cast<int>(std::lround(kept * scale)));
    k = std::min(k, t);
    return runProtocol(kernel, t, k);
}

} // namespace

Measurement
runNttProtocol(const std::function<void()>& kernel, double scale)
{
    return runScaled(kernel, 100, 50, scale);
}

Measurement
runBlasProtocol(const std::function<void()>& kernel, double scale)
{
    return runScaled(kernel, 1000, 500, scale);
}

double
nsPerButterfly(const Measurement& m, size_t n)
{
    checkArg(n >= 2, "nsPerButterfly: n too small");
    double log2n = std::log2(static_cast<double>(n));
    double butterflies = static_cast<double>(n) / 2.0 * log2n;
    return m.mean_ns / butterflies;
}

double
nsPerElement(const Measurement& m, size_t n)
{
    checkArg(n >= 1, "nsPerElement: n too small");
    return m.mean_ns / static_cast<double>(n);
}

Quartiles
quartiles(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    auto at = [&](double p) {
        const double x = p * static_cast<double>(v.size() - 1);
        const auto i = static_cast<size_t>(x);
        const double f = x - static_cast<double>(i);
        return i + 1 < v.size() ? v[i] + f * (v[i + 1] - v[i]) : v[i];
    };
    return {at(0.25), at(0.5), at(0.75)};
}

} // namespace mqx
