/**
 * @file
 * NttPlan construction: root finding and twiddle table precomputation.
 */
#include "ntt/plan.h"

namespace mqx {
namespace ntt {

size_t
bitReverseIndex(size_t i, int bits)
{
    size_t r = 0;
    for (int b = 0; b < bits; ++b)
        r |= ((i >> b) & 1) << (bits - 1 - b);
    return r;
}

NttPlan::NttPlan(const NttPrime& prime, size_t n, size_t l2_budget)
    : NttPlan(prime, n)
{
    checkArg(l2_budget == 0, "NttPlan: the L2 budget must be 0");
}

NttPlan::NttPlan(const Modulus& modulus, size_t n)
    : mod_(modulus), n_(n)
{
    checkArg(n >= 2 && (n & (n - 1)) == 0,
             "NttPlan: n must be a power of two >= 2");
    logn_ = 0;
    for (size_t t = n; t > 1; t >>= 1)
        ++logn_;
    checkArg(isPrime(mod_.value()), "NttPlan: modulus must be prime");

    omega_ = rootOfUnity(mod_, U128{static_cast<uint64_t>(n)});
    omega_inv_ = mod_.inverse(omega_);
    n_inv_ = mod_.inverse(mod_.reduce(U128{static_cast<uint64_t>(n)}));
    n_inv_shoup_ = mod_.shoupCompanion(n_inv_);
}

const NttPlan::LazyTables&
NttPlan::tables() const
{
    LazyTables& t = *lazy_;
    std::call_once(t.once, [&] {
        // T[k] = omega^brev(k) fills in order: brev(2^l + i) = n/2^(l+2)
        // + brev(i) for i < 2^l, so entry 2^l + i is entry i times
        // omega^(n/2^(l+2)) — n/2 multiplies per direction, as a running
        // power would take, plus the Shoup companion of every entry.
        const size_t h = half();
        t.fwd.ensure(h);
        t.inv.ensure(h);
        t.fwd_shoup.ensure(h);
        t.inv_shoup.ensure(h);
        t.fwd.set(0, U128{1});
        t.inv.set(0, U128{1});
        for (int l = 0; (size_t{1} << l) < h; ++l) {
            const size_t base = size_t{1} << l;
            const U128 step{static_cast<uint64_t>(h >> (l + 1))};
            const U128 zf = mod_.pow(omega_, step);
            const U128 zi = mod_.pow(omega_inv_, step);
            for (size_t i = 0; i < base; ++i) {
                t.fwd.set(base + i, mod_.mul(t.fwd.at(i), zf));
                t.inv.set(base + i, mod_.mul(t.inv.at(i), zi));
            }
        }
        for (size_t k = 0; k < h; ++k) {
            t.fwd_shoup.set(k, mod_.shoupCompanion(t.fwd.at(k)));
            t.inv_shoup.set(k, mod_.shoupCompanion(t.inv.at(k)));
        }
        t.built.store(true, std::memory_order_release);
    });
    return t;
}

size_t
NttPlan::twiddleBytes() const
{
    return 4 * 2 * half() * sizeof(uint64_t);
}

size_t
NttPlan::twiddleBytesStretched() const
{
    return 4 * static_cast<size_t>(logn_) * half() * sizeof(uint64_t);
}

size_t
NttPlan::bytesSweptPerTransform(StageFusion fusion) const
{
    // One ping-pong pass reads and writes n split residues: 32n bytes.
    const size_t sweep = 32 * n_;
    const size_t logn = static_cast<size_t>(logn_);
    const size_t passes =
        fusion == StageFusion::Radix4 ? (logn + 1) / 2 : logn;
    return passes * sweep;
}

void
bitReversePermute(DSpan data)
{
    size_t n = data.n;
    if (n < 2)
        return;
    int logn = 0;
    for (size_t t = n; t > 1; t >>= 1)
        ++logn;
    for (size_t i = 0; i < n; ++i) {
        size_t r = bitReverseIndex(i, logn);
        if (r > i) {
            std::swap(data.hi[i], data.hi[r]);
            std::swap(data.lo[i], data.lo[r]);
        }
    }
}

} // namespace ntt
} // namespace mqx
