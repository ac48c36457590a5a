/**
 * @file
 * Shared helpers for the figure/table regeneration harnesses.
 *
 * Conventions (Section 5.1 of the paper): NTT runs use the 100/50
 * protocol and report ns per butterfly; BLAS runs use 1000/500 and
 * report ns per element; vector length 1024; timing includes data
 * movement. Iteration counts scale down for large sizes and slow
 * baselines so a full regeneration stays interactive; the applied scale
 * is part of the Measurement record.
 */
#pragma once

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "baseline/biguint_kernels.h"
#include "baseline/gmp_kernels.h"
#include "baseline/openfhe_like.h"
#include "bench_util/protocol.h"
#include "bench_util/rng.h"
#include "bench_util/tables.h"
#include "core/backend.h"
#include "core/cpu_features.h"
#include "ntt/ntt.h"
#include "sol/reference_data.h"
#include "sol/sol_model.h"

namespace mqx {
namespace bench {

/** Kernel tiers measured by the harnesses, in figure-legend order. */
enum class Tier
{
    Gmp,         ///< real GMP (if built in)
    BigInt,      ///< BigUInt, the from-scratch GMP substitute
    OpenFheLike, ///< generic division-based 128-bit backend
    Scalar,
    Avx2,
    Avx512,
    MqxPisa, ///< MQX timing projection (PISA)
};

inline std::string
tierName(Tier t)
{
    switch (t) {
      case Tier::Gmp:
        return "GMP";
      case Tier::BigInt:
        return "BigUInt";
      case Tier::OpenFheLike:
        return "OpenFHE-like";
      case Tier::Scalar:
        return "Scalar";
      case Tier::Avx2:
        return "AVX2";
      case Tier::Avx512:
        return "AVX-512";
      case Tier::MqxPisa:
        return "MQX";
    }
    return "unknown";
}

/** Tiers runnable on this host/build. */
inline std::vector<Tier>
availableTiers()
{
    std::vector<Tier> tiers;
#if MQX_WITH_GMP
    tiers.push_back(Tier::Gmp);
#endif
    tiers.push_back(Tier::BigInt);
    tiers.push_back(Tier::OpenFheLike);
    tiers.push_back(Tier::Scalar);
    if (backendAvailable(Backend::Avx2))
        tiers.push_back(Tier::Avx2);
    if (backendAvailable(Backend::Avx512))
        tiers.push_back(Tier::Avx512);
    if (backendAvailable(Backend::MqxPisa))
        tiers.push_back(Tier::MqxPisa);
    return tiers;
}

inline bool
tierIsSlowBaseline(Tier t)
{
    return t == Tier::Gmp || t == Tier::BigInt || t == Tier::OpenFheLike;
}

/** Paper-protocol scale for an NTT measurement at size @p n. */
inline double
nttProtocolScale(Tier tier, size_t n)
{
    double scale = 1.0;
    if (n > (1u << 14))
        scale *= static_cast<double>(1u << 14) / static_cast<double>(n);
    if (tierIsSlowBaseline(tier))
        scale *= 0.05;
    return scale < 0.002 ? 0.002 : scale;
}

/** Map a measured tier to the library Backend enum (fast tiers only). */
inline Backend
tierBackend(Tier t)
{
    switch (t) {
      case Tier::Scalar:
        return Backend::Scalar;
      case Tier::Avx2:
        return Backend::Avx2;
      case Tier::Avx512:
        return Backend::Avx512;
      case Tier::MqxPisa:
        return Backend::MqxPisa;
      default:
        throw InvalidArgument("tierBackend: not a library backend tier");
    }
}

/**
 * Measure one forward NTT of size @p n for @p tier. Returns ns per
 * butterfly under the paper protocol.
 */
inline double
measureNtt(Tier tier, const ntt::NttPrime& prime, size_t n)
{
    double scale = nttProtocolScale(tier, n);
    auto input_u = randomResidues(n, prime.q, 0xbe7c4 + n);

    if (tier == Tier::OpenFheLike) {
        baseline::OpenFheLikeNtt kernel(prime, n);
        auto data = input_u;
        Measurement m = runNttProtocol(
            [&] {
                data = input_u; // include data movement, as the paper does
                kernel.forward(data);
            },
            scale);
        return nsPerButterfly(m, n);
    }
    if (tier == Tier::BigInt) {
        baseline::BigUIntKernels kernel(prime, n);
        auto big = baseline::BigUIntKernels::fromU128(input_u);
        auto work = big;
        Measurement m = runNttProtocol(
            [&] {
                work = big;
                kernel.nttForward(work);
            },
            scale);
        return nsPerButterfly(m, n);
    }
#if MQX_WITH_GMP
    if (tier == Tier::Gmp) {
        baseline::GmpKernels kernel(prime, n);
        auto data = input_u;
        Measurement m = runNttProtocol(
            [&] {
                data = input_u;
                kernel.nttForward(data);
            },
            scale);
        return nsPerButterfly(m, n);
    }
#endif

    ntt::NttPlan plan(prime, n);
    ResidueVector in = ResidueVector::fromU128(input_u);
    ResidueVector out(n), scratch(n);
    Backend be = tierBackend(tier);
    // Figure reproduction: pin the paper's Barrett kernels so the
    // measurements stay comparable to the paper-derived reference
    // series (the Shoup-lazy default is ~2x faster and would skew the
    // calibration). bench_fig5_ntt --json measures both strategies.
    Measurement m = runNttProtocol(
        [&] {
            ntt::forward(plan, be, in.span(), out.span(), scratch.span(),
                         Reduction::Barrett);
        },
        scale);
    return nsPerButterfly(m, n);
}

/**
 * Host anchoring for cross-hardware comparisons. The reference series
 * (RPU, MoMA, OpenFHE-32c, paper tiers) are expressed in the paper's
 * absolute scale, anchored at AVX-512 = 100 ns/butterfly on EPYC 9654.
 * To compare against host measurements we rescale references by
 * (host AVX-512 ns/bfly at 2^14) / 100 — preserving every ratio while
 * placing both sides in host units. Falls back to scalar anchoring when
 * AVX-512 is unavailable.
 */
inline double
hostAnchorFactor(const ntt::NttPrime& prime)
{
    static double cached = -1.0;
    if (cached > 0.0)
        return cached;
    const size_t n = 1u << 14;
    if (backendAvailable(Backend::Avx512)) {
        cached = measureNtt(Tier::Avx512, prime, n) /
                 sol::paperEpycSeries("AVX-512").at(n);
    } else {
        cached = measureNtt(Tier::Scalar, prime, n) /
                 sol::paperEpycSeries("Scalar").at(n);
    }
    return cached;
}

/**
 * @p s with the two characters that could break a JSON string ('"' and
 * '\\') escaped — for CPUID brand strings in the BENCH files.
 */
inline std::string
jsonEscape(const std::string& s)
{
    std::string out;
    for (char ch : s) {
        if (ch == '"' || ch == '\\')
            out += '\\';
        out += ch;
    }
    return out;
}

/** Print the host context every harness shares. */
inline void
printHostHeader(const std::string& what)
{
    const CpuFeatures& f = hostCpuFeatures();
    std::printf("== %s ==\n", what.c_str());
    std::printf("host CPU : %s\n",
                f.brand.empty() ? "(unknown)" : f.brand.c_str());
    std::printf("features : avx2=%d avx512=%d\n", f.avx2 ? 1 : 0,
                f.hasAvx512() ? 1 : 0);
    std::printf("protocol : Section 5.1 (NTT 100/50, BLAS 1000/500, "
                "scaled for slow baselines/large sizes)\n");
    std::printf("note     : MQX rows use PISA proxy timing "
                "(Table 3); results are timing-only.\n\n");
}

} // namespace bench
} // namespace mqx
