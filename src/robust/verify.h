/**
 * @file
 * Algebraic integrity checks for RNS kernel output (ISSUE 9 tentpole).
 *
 * Freivalds-style verification of negacyclic polymul: for c = a·b in
 * Z_q[x]/(x^n + 1), evaluate both sides at a point r = psi^(2j+1) — a
 * root of x^n + 1 (psi is the primitive 2n-th root the negacyclic
 * tables are built from), so the ring reduction term vanishes and
 * a(r)·b(r) = c(r) holds *exactly* for correct output. The check is
 * O(n) (one pointwise multiply against a cached powers-of-r table plus
 * a horizontal mod-q sum per operand) versus the O(n log n) transform
 * it guards.
 *
 * Detection: a corrupted word c'[k] = c[k] ± 2^b perturbs c(r) by
 * δ·r^k with δ ≢ 0 (a power of two is never a multiple of an odd
 * prime q) and r invertible — so *any* single flipped residue word is
 * caught deterministically, at every evaluation point. The random
 * choice of j (drawn once per (q, n, seed); the Engine passes
 * kEvalPointSeed)
 * only matters for adversarially structured multi-word errors, where
 * the miss probability is ≤ (terms)/n per channel.
 *
 * The guard-digest check covers linear ops the same way a guard prime
 * would without widening the basis: digest(p) = Σ p[i] mod q is linear,
 * so digest(a + b) = digest(a) + digest(b), and a single flipped word
 * shifts the digest by ±2^b mod q ≠ 0.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/backend.h"
#include "core/residue_span.h"
#include "mod/modulus.h"
#include "u128/u128.h"

namespace mqx {
namespace robust {

enum class VerifyPolicy : uint8_t {
    /** No checks (default; zero overhead). */
    Off,
    /** Check every channel of every sample_period-th engine op. */
    Sample,
    /** Check every channel of every op. */
    Always,
};

const char* verifyPolicyName(VerifyPolicy policy);

/** Serial-path recompute attempts of a failing channel before
 *  DataCorruption surfaces. */
inline constexpr uint32_t kMaxRepairRetries = 2;

/** Seeds the Engine's per-(q, n) evaluation-point draw. */
inline constexpr uint64_t kEvalPointSeed = 0x5eedf00dcafe1234ull;

/** Engine-level verification configuration (EngineOptions::verify). */
struct VerifyOptions {
    VerifyPolicy policy = VerifyPolicy::Off;
    /** Sample: check ops whose sequence number is ≡ 0 (mod this). */
    uint32_t sample_period = 8;
    /** Also digest-check linear ops (Engine::add). */
    bool guard_digest = false;
};

/**
 * Cached evaluation point for one (q, n, seed): r = psi^(2j+1) and the
 * table powers[i] = r^i used to evaluate polynomials with one pointwise
 * vmul. Built lazily on first check of a channel shape and shared
 * process-wide.
 */
struct EvalPoint {
    U128 r;
    ResidueVector powers;
};

std::shared_ptr<const EvalPoint> evalPointFor(const Modulus& m,
                                              const U128& psi, size_t n,
                                              uint64_t seed);

/** p(pt.r) mod q; tolerates out-of-range (corrupted) words in p. */
U128 evalAt(Backend backend, const Modulus& m, DConstSpan p,
            const EvalPoint& pt);

/** True iff a(r)·b(r) == c(r) at the cached point for (q, n, seed). */
bool checkNegacyclicPolymul(Backend backend, const Modulus& m,
                            const U128& psi, DConstSpan a, DConstSpan b,
                            DConstSpan c, uint64_t seed);

/** True iff Σ a_i(r)·b_i(r) == c(r) — the fused dot-product identity. */
bool checkNegacyclicFma(
    Backend backend, const Modulus& m, const U128& psi,
    const std::vector<std::pair<DConstSpan, DConstSpan>>& products,
    DConstSpan c, uint64_t seed);

/** Σ p[i] mod q — the linear guard digest of one channel. */
U128 channelDigest(const Modulus& m, DConstSpan p);

/** True iff digest(c) == digest(a) + digest(b) mod q. */
bool checkAddDigest(const Modulus& m, DConstSpan a, DConstSpan b,
                    DConstSpan c);

} // namespace robust
} // namespace mqx
