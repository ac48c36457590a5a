/**
 * @file
 * AVX-512 implementation of the SIMD ISA policy (paper Section 3.2).
 *
 * 8-way 64-bit lanes, hardware mask registers (__mmask8), unsigned
 * compares. Two operations deserve comment because they are exactly the
 * bottlenecks MQX later removes (Section 4):
 *
 *  - adc/sbb: AVX-512 has no carry flags, so add-with-carry is the
 *    six-instruction sequence from Table 1 (two adds, a masked add, two
 *    unsigned compares, a mask OR).
 *  - mulWide: AVX-512 only provides multiply-low for 64-bit lanes
 *    (_mm512_mullo_epi64); the high half is reconstructed from four
 *    32-bit partial products via _mm512_mul_epu32.
 *
 * This header may only be included from translation units compiled with
 * -mavx512f -mavx512dq (the build system guarantees this).
 */
#pragma once

#include <immintrin.h>

#include <cstdint>

#include "core/config.h"

#if !MQX_TU_HAS_AVX512
#error "isa_avx512.h included in a TU without AVX-512 codegen flags"
#endif

namespace mqx {
namespace simd {

/** AVX-512 SIMD policy: __m512i vectors, __mmask8 masks. */
struct Avx512Isa
{
    static constexpr size_t kLanes = 8;
    static constexpr bool kIsMqx = false;
    static constexpr bool kCarryChain = false; ///< see simd/dw_kernels.h
    static constexpr bool kHasPredicated = false;
    static constexpr bool kHasIfma = false; ///< see isa_avx512_ifma.h

    using V = __m512i;
    using M = __mmask8;

    static V set1(uint64_t x) { return _mm512_set1_epi64(static_cast<long long>(x)); }

    static V
    loadu(const uint64_t* p)
    {
        return _mm512_loadu_si512(reinterpret_cast<const void*>(p));
    }

    static void
    storeu(uint64_t* p, V v)
    {
        _mm512_storeu_si512(reinterpret_cast<void*>(p), v);
    }

    static V add(V a, V b) { return _mm512_add_epi64(a, b); }
    static V sub(V a, V b) { return _mm512_sub_epi64(a, b); }
    static V mullo(V a, V b) { return _mm512_mullo_epi64(a, b); }
    static V and_(V a, V b) { return _mm512_and_si512(a, b); }
    static V or_(V a, V b) { return _mm512_or_si512(a, b); }

    static V
    srlCount(V a, unsigned s)
    {
        return _mm512_srl_epi64(a, _mm_cvtsi32_si128(static_cast<int>(s)));
    }

    static V
    sllCount(V a, unsigned s)
    {
        return _mm512_sll_epi64(a, _mm_cvtsi32_si128(static_cast<int>(s)));
    }

    static M cmpLtU(V a, V b) { return _mm512_cmp_epu64_mask(a, b, _MM_CMPINT_LT); }
    static M cmpLeU(V a, V b) { return _mm512_cmp_epu64_mask(a, b, _MM_CMPINT_LE); }
    static M cmpEqU(V a, V b) { return _mm512_cmp_epu64_mask(a, b, _MM_CMPINT_EQ); }
    static M cmpGtU(V a, V b) { return _mm512_cmp_epu64_mask(a, b, _MM_CMPINT_NLE); }

    static M maskOr(M a, M b) { return static_cast<M>(a | b); }
    static M maskAnd(M a, M b) { return static_cast<M>(a & b); }
    static M maskNot(M a) { return static_cast<M>(~a); }
    static M maskZero() { return 0; }
    static M initialCarryMask() { return 0; }

    static V
    maskAdd(V src, M m, V a, V b)
    {
        return _mm512_mask_add_epi64(src, m, a, b);
    }

    static V
    maskSub(V src, M m, V a, V b)
    {
        return _mm512_mask_sub_epi64(src, m, a, b);
    }

    static V
    blend(M m, V a, V b)
    {
        return _mm512_mask_blend_epi64(m, a, b);
    }

    /**
     * Add with carry: the Table-1 AVX-512 sequence (six instructions).
     * MQX replaces this with a single vpadcq. As in addc64, the carries
     * of the two partial sums are tested (rather than the published
     * (t1 < a) | (t1 < b)) so the a == b == 2^64-1, carry-in corner is
     * exact at identical instruction count.
     */
    static V
    adc(V a, V b, M ci, M& co)
    {
        V t0 = _mm512_add_epi64(a, b);
        V one = _mm512_set1_epi64(1);
        V t1 = _mm512_mask_add_epi64(t0, ci, t0, one);
        M q0 = _mm512_cmp_epu64_mask(t0, a, _MM_CMPINT_LT);
        M q1 = _mm512_cmp_epu64_mask(t1, t0, _MM_CMPINT_LT);
        co = static_cast<M>(q0 | q1);
        return t1;
    }

    /**
     * Subtract with borrow, emulated symmetrically to adc:
     * borrow-out = (a < b) | (a - b < borrow-in).
     */
    static V
    sbb(V a, V b, M bi, M& bo)
    {
        V t0 = _mm512_sub_epi64(a, b);
        V one = _mm512_set1_epi64(1);
        M q0 = _mm512_cmp_epu64_mask(a, b, _MM_CMPINT_LT);
        V bi_v = _mm512_maskz_mov_epi64(bi, one);
        M q1 = _mm512_cmp_epu64_mask(t0, bi_v, _MM_CMPINT_LT);
        V t1 = _mm512_mask_sub_epi64(t0, bi, t0, one);
        bo = static_cast<M>(q0 | q1);
        return t1;
    }

    /**
     * Widening 64x64 multiply emulated with 32-bit partial products:
     * the low half is one vpmullq; the high half takes four
     * _mm512_mul_epu32 cross products plus shifts/adds. This emulation
     * cost is the "+M" motivation in the Fig. 6 ablation.
     */
    static void
    mulWide(V a, V b, V& hi, V& lo)
    {
        const V mask32 = _mm512_set1_epi64(0xffffffffll);
        V a_hi = _mm512_srli_epi64(a, 32);
        V b_hi = _mm512_srli_epi64(b, 32);
        V p0 = _mm512_mul_epu32(a, b);       // aL * bL
        V p1 = _mm512_mul_epu32(a_hi, b);    // aH * bL
        V p2 = _mm512_mul_epu32(a, b_hi);    // aL * bH
        V p3 = _mm512_mul_epu32(a_hi, b_hi); // aH * bH
        V mid = _mm512_add_epi64(
            _mm512_add_epi64(_mm512_srli_epi64(p0, 32),
                             _mm512_and_si512(p1, mask32)),
            _mm512_and_si512(p2, mask32));
        hi = _mm512_add_epi64(
            _mm512_add_epi64(p3, _mm512_srli_epi64(mid, 32)),
            _mm512_add_epi64(_mm512_srli_epi64(p1, 32),
                             _mm512_srli_epi64(p2, 32)));
        lo = _mm512_mullo_epi64(a, b);
    }

    static void
    interleave2(V u, V v, V& out_lo, V& out_hi)
    {
        // Indices select from the concatenation (u = 0..7, v = 8..15):
        // exactly the _mm512_permutex2var_epi64 pattern the paper cites.
        const V idx_lo = _mm512_setr_epi64(0, 8, 1, 9, 2, 10, 3, 11);
        const V idx_hi = _mm512_setr_epi64(4, 12, 5, 13, 6, 14, 7, 15);
        out_lo = _mm512_permutex2var_epi64(u, idx_lo, v);
        out_hi = _mm512_permutex2var_epi64(u, idx_hi, v);
    }

    static void
    deinterleave2(V a, V b, V& even, V& odd)
    {
        const V idx_even = _mm512_setr_epi64(0, 2, 4, 6, 8, 10, 12, 14);
        const V idx_odd = _mm512_setr_epi64(1, 3, 5, 7, 9, 11, 13, 15);
        even = _mm512_permutex2var_epi64(a, idx_even, b);
        odd = _mm512_permutex2var_epi64(a, idx_odd, b);
    }

    static V
    reverse(V x)
    {
        return _mm512_permutexvar_epi64(_mm512_setr_epi64(7, 6, 5, 4, 3, 2,
                                                          1, 0),
                                        x);
    }

    static void
    deinterleave2Reversed(V a, V b, V& even, V& odd)
    {
        // deinterleave2 with the reversal folded into its indices.
        const V idx_even = _mm512_setr_epi64(15, 13, 11, 9, 7, 5, 3, 1);
        const V idx_odd = _mm512_setr_epi64(14, 12, 10, 8, 6, 4, 2, 0);
        even = _mm512_permutex2var_epi64(a, idx_even, b);
        odd = _mm512_permutex2var_epi64(a, idx_odd, b);
    }
};

} // namespace simd
} // namespace mqx
