/**
 * @file
 * FHE-flavoured use of the engine's batched RNS ops (paper Sections
 * 1-2): ciphertext polynomials in an RNS evaluation representation,
 * where homomorphic addition is point-wise vector addition and
 * homomorphic multiplication (of already-NTT'd polynomials) is
 * point-wise vector multiplication — per residue channel, fanned out
 * across the engine's thread pool.
 *
 * This example keeps two "ciphertext" polynomials of length 1024 over a
 * 3-prime RNS basis, applies a small homomorphic circuit
 * (ct3 = ct1 .* ct2 + ct1) with every available backend routed through
 * engine::Engine, and verifies all backends agree bit-for-bit with each
 * other and with a one-thread Scalar engine.
 */
#include <cstdio>

#include "bench_util/rng.h"
#include "engine/engine.h"
#include "rns/rns.h"

int
main()
{
    using namespace mqx;

    rns::RnsBasis basis(124, 12, 3);
    const size_t n = 1024; // typical FHE polynomial length (Section 5.1)

    std::printf("point-wise ciphertext ops over Z_Q (%zu x 124-bit "
                "channels), n = %zu\n\n",
                basis.size(), n);

    auto ct1 = rns::randomPolynomial(basis, n, 0xc1);
    auto ct2 = rns::randomPolynomial(basis, n, 0xc2);

    // Serial reference: one thread runs every channel inline, in order.
    engine::Engine serial(Backend::Scalar, 1);
    auto golden = serial.add(serial.mul(ct1, ct2), ct1);

    bool all_agree = true;
    for (Backend be : correctBackends()) {
        if (!backendAvailable(be))
            continue; // skip tiers this host cannot run
        engine::Engine eng(be);

        // ct3 = ct1 .* ct2 + ct1 (all point-wise, mod Q via channels)
        auto ct3 = eng.add(eng.mul(ct1, ct2), ct1);

        bool agree = true;
        for (size_t i = 0; i < basis.size(); ++i)
            agree = agree && ct3.channel(i) == golden.channel(i);
        all_agree = all_agree && agree;
        std::printf("  %-16s (%zu threads) ct3[0][0] = %s...  %s\n",
                    backendName(be).c_str(), eng.threads(),
                    toHexString(ct3.channel(0).at(0)).substr(0, 18).c_str(),
                    agree ? "agrees" : "MISMATCH");
    }

    // Spot-check lane 7 of every channel against closed-form scalar math.
    bool lane_ok = true;
    for (size_t i = 0; i < basis.size(); ++i) {
        const Modulus& q = basis.modulus(i);
        U128 expect = q.add(q.mul(ct1.channel(i).at(7), ct2.channel(i).at(7)),
                            ct1.channel(i).at(7));
        lane_ok = lane_ok && expect == golden.channel(i).at(7);
    }
    std::printf("\nlane 7 closed-form check: %s\n",
                lane_ok ? "ok" : "FAILED");
    return lane_ok && all_agree ? 0 : 1;
}
