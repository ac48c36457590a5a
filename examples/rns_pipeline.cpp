/**
 * @file
 * The FHE arithmetic pipeline in miniature (paper Section 1): large
 * coefficients -> RNS decomposition into 124-bit residues -> negacyclic
 * polynomial product per channel via the SIMD NTT kernels -> CRT
 * reconstruction. This is precisely the data path whose per-channel
 * kernels the paper optimizes.
 */
#include <cstdio>

#include "bench_util/protocol.h"
#include "bench_util/rng.h"
#include "engine/engine.h"
#include "rns/rns.h"

int
main()
{
    using namespace mqx;

    // Basis of three 124-bit NTT-friendly primes: Q has ~372 bits,
    // comfortably in "coefficients over 1,000 bits need a handful of
    // 128-bit residues" territory (Section 1).
    rns::RnsBasis basis(124, 20, 3);
    std::printf("RNS basis (%zu primes):\n", basis.size());
    for (size_t i = 0; i < basis.size(); ++i)
        std::printf("  q_%zu = %s\n", i,
                    toHexString(basis.prime(i).q).c_str());
    std::printf("  Q   = %s... (%d bits)\n\n",
                basis.bigModulus().toHexString().substr(0, 20).c_str(),
                basis.bigModulus().bits());

    // Two random polynomials of length 1024 over Z_Q.
    const size_t n = 1024;
    SplitMix64 rng(0xfee1);
    std::vector<BigUInt> fa(n), fb(n);
    for (size_t i = 0; i < n; ++i) {
        BigUInt v;
        for (int limb = 0; limb < 6; ++limb)
            v = (v << 64) + BigUInt{rng.next()};
        fa[i] = v % basis.bigModulus();
        v = (v << 64) + BigUInt{rng.next()};
        fb[i] = v % basis.bigModulus();
    }

    auto pa = rns::RnsPolynomial::fromCoefficients(basis, fa);
    auto pb = rns::RnsPolynomial::fromCoefficients(basis, fb);

    // Route the channel dispatch through the parallel engine: residue
    // channels fan out across the thread pool (MQX_THREADS overrides
    // the width) and repeated polymuls reuse cached NTT plans.
    engine::Engine engine;
    std::printf("negacyclic product in Z_Q[x]/(x^%zu + 1), backend %s, "
                "%zu thread(s)...\n",
                n, backendName(engine.backend()).c_str(), engine.threads());

    uint64_t t0 = nowNs();
    auto prod = engine.polymulNegacyclic(pa, pb);
    uint64_t t1 = nowNs();
    auto warm = engine.polymulNegacyclic(pa, pb);
    uint64_t t2 = nowNs();
    auto coeffs = prod.toCoefficients();
    uint64_t t3 = nowNs();

    std::printf("  channel kernels: %8.2f us (%zu channels x NTT pipeline, "
                "cold plans)\n",
                (t1 - t0) / 1e3, basis.size());
    std::printf("  repeat call    : %8.2f us (plan cache: %llu hits, "
                "deterministic: %s)\n",
                (t2 - t1) / 1e3,
                static_cast<unsigned long long>(engine.planCache().stats().hits),
                warm.channel(0) == prod.channel(0) ? "yes" : "NO");
    std::printf("  CRT reconstruct: %8.2f us\n", (t3 - t2) / 1e3);

    // Spot-check coefficient 0 against the direct big-integer formula:
    // c[0] = f[0]g[0] - sum_{i=1..n-1} f[i] g[n-i]  (mod Q).
    const BigUInt& q = basis.bigModulus();
    BigUInt expect = BigUInt::mulMod(fa[0], fb[0], q);
    for (size_t i = 1; i < n; ++i) {
        expect = BigUInt::subMod(expect, BigUInt::mulMod(fa[i], fb[n - i], q),
                                 q);
    }
    std::printf("  coefficient-0 check vs BigUInt oracle: %s\n",
                coeffs[0] == expect ? "ok" : "FAILED");
    return coeffs[0] == expect ? 0 : 1;
}
