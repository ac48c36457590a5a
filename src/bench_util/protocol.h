/**
 * @file
 * The paper's timing protocol (Section 5.1).
 *
 * "For NTTs, we report the average runtime of the final 50 iterations out
 *  of 100 runs; for BLAS operations, we report the average runtime of the
 *  final 500 iterations out of 1,000 runs. This approach allows the cache
 *  to warm up and stabilize."
 *
 * runProtocol() implements exactly that: run the kernel total_iters
 * times, discard the first total_iters - kept_iters timings, and return
 * the mean of the rest. Iteration counts scale down for slow baselines at
 * large sizes so a full figure regeneration stays interactive; the scale
 * factor is reported alongside the measurement.
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <vector>

namespace mqx {

/** Result of one measured kernel configuration. */
struct Measurement
{
    double mean_ns = 0.0;   ///< mean wall time per iteration (kept window)
    double min_ns = 0.0;    ///< fastest kept iteration
    int total_iters = 0;    ///< iterations executed
    int kept_iters = 0;     ///< iterations averaged
};

/** Monotonic nanosecond timestamp. */
inline uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/**
 * Run @p kernel with the paper's discard-then-average protocol.
 *
 * @param kernel      callable executing one full kernel invocation
 * @param total_iters total runs (paper: 100 NTT / 1000 BLAS)
 * @param kept_iters  final runs to average (paper: 50 NTT / 500 BLAS)
 */
Measurement runProtocol(const std::function<void()>& kernel,
                        int total_iters, int kept_iters);

/**
 * The paper's NTT protocol (100/50), scaled by @p scale in (0, 1] for
 * slow baselines. At least 4/2 iterations are always run.
 */
Measurement runNttProtocol(const std::function<void()>& kernel,
                           double scale = 1.0);

/** The paper's BLAS protocol (1000/500) with the same scaling rule. */
Measurement runBlasProtocol(const std::function<void()>& kernel,
                            double scale = 1.0);

/**
 * Nanoseconds per butterfly for an n-point radix-2 NTT measurement:
 * an n-point NTT executes (n/2) * log2(n) butterflies (Section 2.3).
 */
double nsPerButterfly(const Measurement& m, size_t n);

/** Nanoseconds per element for a length-n BLAS measurement. */
double nsPerElement(const Measurement& m, size_t n);

/** Lower quartile, median and upper quartile of a sample. */
struct Quartiles
{
    double q1 = 0, median = 0, q3 = 0;
};

Quartiles quartiles(std::vector<double> v);

/** A variant timed against its baseline in alternated pairs. */
struct Paired
{
    uint64_t base_ns = 0;    ///< median baseline time
    uint64_t variant_ns = 0; ///< median variant time
    Quartiles overhead_pct;  ///< of the per-pair variant/base - 1
    int variant_wins = 0;    ///< pairs in which the variant was faster
};

/**
 * Time @p base and @p variant in @p pairs alternated pairs (the order
 * flips every pair). A pair sees one host state on both sides, so the
 * per-pair ratio cancels the host's speed drifts that separate two
 * best-of runs taken one after the other.
 */
template <typename Base, typename Variant>
Paired
pairedOverhead(int pairs, Base&& base, Variant&& variant)
{
    auto timed = [](auto& fn) {
        const uint64_t t0 = nowNs();
        fn();
        return nowNs() - t0;
    };
    std::vector<double> b_ns, v_ns, pct;
    int wins = 0;
    for (int p = 0; p < pairs; ++p) {
        uint64_t tb = 0, tv = 0;
        if (p % 2 == 0) {
            tb = timed(base);
            tv = timed(variant);
        } else {
            tv = timed(variant);
            tb = timed(base);
        }
        wins += tv < tb ? 1 : 0;
        b_ns.push_back(static_cast<double>(tb));
        v_ns.push_back(static_cast<double>(tv));
        pct.push_back(100.0 * (static_cast<double>(tv) /
                                   static_cast<double>(tb) -
                               1.0));
    }
    return {static_cast<uint64_t>(quartiles(b_ns).median),
            static_cast<uint64_t>(quartiles(v_ns).median), quartiles(pct),
            wins};
}

} // namespace mqx
