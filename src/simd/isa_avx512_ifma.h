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
 * The limb splits and joins use VBMI2 funnel shifts (vpshrdq) and byte
 * shuffles (vpshufb, port 5): on Ice Lake and later every 512-bit
 * vpmadd52 and every zmm shift issues on port 0 alone, so each shift a
 * join saves is a port-0 slot for the multiplies.
 *
 * This header may only be included from translation units compiled
 * with -mavx512ifma -mavx512vbmi2 on top of the AVX-512 flags.
 */
#pragma once

#include "simd/isa_avx512.h"

#if !defined(__AVX512IFMA__) || !defined(__AVX512VBMI2__)
#error "isa_avx512_ifma.h included in a TU without -mavx512ifma -mavx512vbmi2"
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
    /** a rotated left by k bits (one vprolq). */
    template <unsigned k>
    static V rotli(V a) { return _mm512_rol_epi64(a, k); }
    /** Low word of the 128-bit hi:lo shifted right by k (one vpshrdq). */
    template <unsigned k>
    static V shrd(V lo, V hi) { return _mm512_shrdi_epi64(lo, hi, k); }
    /** shrd by the per-lane counts in @p k, mod 64 (one vpshrdvq). */
    static V shrdv(V lo, V hi, V k) { return _mm512_shrdv_epi64(lo, hi, k); }

    /**
     * a >> 8*kBytes as one vpshufb (port 5): byte i of each word takes
     * byte i + kBytes, or zero past the word's top byte.
     */
    template <unsigned kBytes>
    static V
    srliBytes(V a)
    {
        static_assert(kBytes > 0 && kBytes < 8);
        auto control = [](uint64_t first) {
            uint64_t c = 0;
            for (unsigned i = 0; i < 8; ++i)
                c |= (i + kBytes < 8 ? first + i + kBytes : 0x80) << (8 * i);
            return static_cast<long long>(c);
        };
        // vpshufb indexes within 128-bit lanes: the odd words' bytes
        // are 8..15 of their lane.
        return _mm512_shuffle_epi8(
            a, _mm512_set4_epi64(control(8), control(0), control(8),
                                 control(0)));
    }
};

} // namespace simd
} // namespace mqx
