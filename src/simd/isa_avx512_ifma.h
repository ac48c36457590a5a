/**
 * @file
 * AVX-512 policy with IFMA (vpmadd52luq / vpmadd52huq): the shipping
 * instructions closest to the widening multiply MQX proposes ("+M" in
 * the Fig. 6 ablation).
 *
 * Everything else is inherited from Avx512Isa. kHasIfma routes
 * simd::mulModShoupV and simd::mulModV (Barrett) to the 52-bit-limb
 * kernels (dw_kernels.h), which need the extra primitives below, so no
 * kernel of this ISA calls the emulated mulWide. Its add/sub dataflow
 * is compares and masked adds (Listing 2 and the headroom lazy
 * helpers), so no kernel calls the emulated adc/sbb either.
 *
 * This header may only be included from translation units compiled
 * with -mavx512ifma on top of the AVX-512 flags.
 */
#pragma once

#include "simd/isa_avx512.h"

#if !defined(__AVX512IFMA__)
#error "isa_avx512_ifma.h included in a TU without -mavx512ifma"
#endif

namespace mqx {
namespace simd {

/** Avx512Isa plus the IFMA limb primitives. */
struct Avx512IfmaIsa : Avx512Isa
{
    static constexpr bool kHasIfma = true;
    static constexpr bool kCarryChain = false; ///< see simd/dw_kernels.h

    /** acc + low 52 bits of (a mod 2^52) * (b mod 2^52). */
    static V madd52lo(V acc, V a, V b) { return _mm512_madd52lo_epu64(acc, a, b); }
    /** acc + bits 52..103 of (a mod 2^52) * (b mod 2^52). */
    static V madd52hi(V acc, V a, V b) { return _mm512_madd52hi_epu64(acc, a, b); }

    template <unsigned k>
    static V srli(V a) { return _mm512_srli_epi64(a, k); }
    template <unsigned k>
    static V slli(V a) { return _mm512_slli_epi64(a, k); }

    /** Bitwise m ? a : b (one vpternlogq). */
    static V
    select(V m, V a, V b)
    {
        return _mm512_ternarylogic_epi64(m, a, b, 0xCA);
    }
};

} // namespace simd
} // namespace mqx
