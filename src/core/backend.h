/**
 * @file
 * The backend taxonomy shared by every kernel family (NTT, BLAS, raw
 * modular ops). Mirrors the implementation tiers of the paper's
 * evaluation (Section 5): scalar, AVX2, AVX-512, and MQX — the latter in
 * both functional-emulation and PISA performance-projection modes.
 */
#pragma once

#include <string>
#include <vector>

namespace mqx {

/** Kernel implementation tiers. */
enum class Backend
{
    Scalar,     ///< optimized scalar (native 128-bit, Section 3.1)
    Portable,   ///< plain-C++ 8-lane model of the SIMD kernels
    Avx2,       ///< 4-way AVX2 (Section 3.2)
    Avx512,     ///< 8-way AVX-512 (Listing 2)
    MqxEmulate, ///< MQX with Table-2 scalar emulation: bit-exact, slow
    MqxPisa,    ///< MQX with Table-3 proxy instructions: timing-faithful,
                ///< numerically wrong by design — benchmarking only
};

/**
 * Reduction strategy for kernels whose multiplications have a fixed,
 * precomputable operand (NTT twiddles, psi tables, n^-1).
 *
 * ShoupLazy is the steady-state default: every twiddle carries a
 * precomputed quotient wq = floor(w * 2^128 / q) (Shoup/Harvey), the
 * butterfly multiply costs one full product plus two low products with
 * NO correction subtractions, and intermediate operands live in the
 * redundant range [0, 2q) — canonicalization to [0, q) is deferred to
 * one fused pass in the final stage (forward) or the n^-1 scaling
 * (inverse). Results are bit-identical to the Barrett path.
 *
 * Barrett keeps the paper's Eq.-4 full reduction per butterfly; it is
 * retained for the ablation benches and as the cross-check oracle.
 *
 * BarrettKaratsuba is Barrett on the Karatsuba double-word product
 * (Eq. 9: three word multiplies, more additions) instead of schoolbook
 * (Eq. 8: four), the Section 5.5 ablation; schoolbook wins on CPUs. On
 * IFMA ISAs (one 52-bit limb product) it runs exactly Barrett. All
 * other kernels use the schoolbook product.
 */
enum class Reduction
{
    ShoupLazy,        ///< precomputed-quotient multiply, lazy [0, 2q) operands
    Barrett,          ///< full Barrett reduction per butterfly (paper Eq. 4)
    BarrettKaratsuba, ///< Barrett with Karatsuba products (Section 5.5)
};

/**
 * Butterfly stage fusion for the Pease NTT kernels.
 *
 * Radix4 (default) fuses two consecutive radix-2 stages into one pass:
 * each pass loads the pair of stages' operands once, applies both
 * butterfly layers in registers (Shoup-lazy arithmetic, the same
 * [0, 4q) forward / [0, 2q) inverse contract as the radix-2 path), and
 * stores once — ceil(logn/2) ping-pong sweeps instead of logn, plus a
 * single radix-2 pass when logn is odd. Outputs are bit-identical to
 * Radix2.
 *
 * Radix2 keeps one sweep per stage; it is retained for A/B traffic
 * measurements and figure reproduction. The fused kernels are built on
 * the Shoup-lazy arithmetic; the Barrett reductions (the ablation
 * baselines) always run the radix-2 stage loop regardless of this knob.
 *
 * Auto (the public-API default) resolves to the measured-fastest shape
 * for the (backend, n) pair via ntt::resolveStageFusion(): the
 * committed BENCH_ntt.json (Intel Xeon) has fusion winning on Scalar
 * at every n, tied on AVX2 (which fuses) and losing on Portable (which
 * does not); AVX-512 runs radix-2 for 1024 <= n < 16384 and fuses
 * outside that band; MQX fuses from n = 65536. This covers the cyclic
 * transforms and the merged negacyclic per-channel ones (one kernel
 * body); the batch kernels are radix-2.
 * Backends never see Auto — the dispatcher resolves it first.
 */
enum class StageFusion
{
    Radix4, ///< two stages per sweep (default steady state)
    Radix2, ///< one stage per sweep (A/B baseline)
    Auto,   ///< resolve per (backend, n) from the measured thresholds
};

/**
 * MQX feature ablation variants (paper Fig. 6). "Base" in the figure is
 * plain AVX-512, i.e. Backend::Avx512.
 */
enum class MqxVariant
{
    MulOnly,        ///< +M: widening multiply only
    CarryOnly,      ///< +C: adc/sbb only
    Full,           ///< +M,C: the proposed MQX
    MulhiCarry,     ///< +Mh,C: multiply-high instead of widening multiply
    FullPredicated, ///< +M,C,P: MQX plus predicated adc/sbb
};

/** Fig. 6 label for a variant (e.g. "+M,C"). */
std::string mqxVariantName(MqxVariant v);

/** Human-readable backend name (matches the paper's figure legends). */
std::string backendName(Backend b);

/** All backends that produce correct results (excludes MqxPisa). */
std::vector<Backend> correctBackends();

/**
 * True if @p b can run on this process (compiled in and supported by
 * the host CPU).
 */
bool backendAvailable(Backend b);

/** Best available correct backend for production dispatch. */
Backend bestBackend();

/**
 * True when Backend::Avx512 runs its multiplies on IFMA 52-bit limbs:
 * the IFMA builds of the AVX-512 NTT and BLAS tiers are compiled in
 * (MQX_BUILD_AVX512_IFMA) and CPUID/XCR0 report AVX-512 with
 * AVX512_IFMA and AVX512_VBMI2 (the limb splits' funnel shifts).
 * Otherwise Backend::Avx512 runs the emulated 64x64 multiply. Outputs
 * are word-identical either way, and no knob overrides the choice.
 */
bool avx512Ifma();

/**
 * The multiply Backend::Avx512 runs on this host, for logs and BENCH
 * rows: "ifma", "emulated", or "unavailable" (no AVX-512 tier).
 */
const char* avx512Kernel();

} // namespace mqx
