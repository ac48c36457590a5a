/**
 * @file
 * AVX2 implementation of the SIMD ISA policy (paper Section 3.2).
 *
 * 4-way 64-bit lanes. AVX2 lacks both mask registers and unsigned 64-bit
 * compares, so masks are full vectors of all-ones/all-zeros lanes and
 * every unsigned compare pays a sign-bias XOR — "the comparison
 * operations ... require more instructions and additional handling
 * compared to AVX-512" (Section 3.2). It also lacks a 64-bit
 * multiply-low, so even mullo is reconstructed from 32-bit partial
 * products.
 *
 * Include only from TUs compiled with -mavx2.
 */
#pragma once

#include <immintrin.h>

#include <cstdint>

#include "core/config.h"

#if !MQX_TU_HAS_AVX2
#error "isa_avx2.h included in a TU without AVX2 codegen flags"
#endif

namespace mqx {
namespace simd {

/** AVX2 SIMD policy: __m256i vectors, vector-typed masks. */
struct Avx2Isa
{
    static constexpr size_t kLanes = 4;
    static constexpr bool kIsMqx = false;
    static constexpr bool kCarryChain = false; ///< see simd/dw_kernels.h
    static constexpr bool kHasPredicated = false;
    static constexpr bool kHasIfma = false; ///< see isa_avx512_ifma.h

    using V = __m256i;
    using M = __m256i; // all-ones lane = true

    static V set1(uint64_t x) { return _mm256_set1_epi64x(static_cast<long long>(x)); }

    static V
    loadu(const uint64_t* p)
    {
        return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
    }

    static void
    storeu(uint64_t* p, V v)
    {
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
    }

    static V add(V a, V b) { return _mm256_add_epi64(a, b); }
    static V sub(V a, V b) { return _mm256_sub_epi64(a, b); }
    static V and_(V a, V b) { return _mm256_and_si256(a, b); }
    static V or_(V a, V b) { return _mm256_or_si256(a, b); }

    /** 64-bit multiply-low, reconstructed from 32-bit partials. */
    static V
    mullo(V a, V b)
    {
        V a_hi = _mm256_srli_epi64(a, 32);
        V b_hi = _mm256_srli_epi64(b, 32);
        V p0 = _mm256_mul_epu32(a, b);
        V cross = _mm256_add_epi64(_mm256_mul_epu32(a_hi, b),
                                   _mm256_mul_epu32(a, b_hi));
        return _mm256_add_epi64(p0, _mm256_slli_epi64(cross, 32));
    }

    static V
    srlCount(V a, unsigned s)
    {
        return _mm256_srl_epi64(a, _mm_cvtsi32_si128(static_cast<int>(s)));
    }

    static V
    sllCount(V a, unsigned s)
    {
        return _mm256_sll_epi64(a, _mm_cvtsi32_si128(static_cast<int>(s)));
    }

    static M
    cmpLtU(V a, V b)
    {
        // No unsigned compare in AVX2: bias both sides by 2^63 and use
        // the signed greater-than.
        const V bias = _mm256_set1_epi64x(static_cast<long long>(1ull << 63));
        return _mm256_cmpgt_epi64(_mm256_xor_si256(b, bias),
                                  _mm256_xor_si256(a, bias));
    }

    static M
    cmpGtU(V a, V b)
    {
        return cmpLtU(b, a);
    }

    static M cmpEqU(V a, V b) { return _mm256_cmpeq_epi64(a, b); }

    static M
    cmpLeU(V a, V b)
    {
        return _mm256_or_si256(cmpLtU(a, b), cmpEqU(a, b));
    }

    static M maskOr(M a, M b) { return _mm256_or_si256(a, b); }
    static M maskAnd(M a, M b) { return _mm256_and_si256(a, b); }

    static M
    maskNot(M a)
    {
        return _mm256_xor_si256(a, _mm256_set1_epi64x(-1ll));
    }

    static M maskZero() { return _mm256_setzero_si256(); }
    static M initialCarryMask() { return maskZero(); }

    static V
    maskAdd(V src, M m, V a, V b)
    {
        return _mm256_blendv_epi8(src, _mm256_add_epi64(a, b), m);
    }

    static V
    maskSub(V src, M m, V a, V b)
    {
        return _mm256_blendv_epi8(src, _mm256_sub_epi64(a, b), m);
    }

    static V
    blend(M m, V a, V b)
    {
        return _mm256_blendv_epi8(a, b, m);
    }

    /** Add with carry (Table-1 shape; carries become 0/1 via mask AND). */
    static V
    adc(V a, V b, M ci, M& co)
    {
        const V one = _mm256_set1_epi64x(1);
        V t0 = _mm256_add_epi64(a, b);
        V t1 = _mm256_add_epi64(t0, _mm256_and_si256(ci, one));
        M q0 = cmpLtU(t0, a);  // carry from a + b
        M q1 = cmpLtU(t1, t0); // carry from + ci
        co = _mm256_or_si256(q0, q1);
        return t1;
    }

    /** Subtract with borrow. */
    static V
    sbb(V a, V b, M bi, M& bo)
    {
        const V one = _mm256_set1_epi64x(1);
        V bi1 = _mm256_and_si256(bi, one);
        M q0 = cmpLtU(a, b);
        V t0 = _mm256_sub_epi64(a, b);
        M q1 = cmpLtU(t0, bi1);
        V t1 = _mm256_sub_epi64(t0, bi1);
        bo = _mm256_or_si256(q0, q1);
        return t1;
    }

    /** Widening multiply from four 32-bit partial products. */
    static MQX_FORCE_INLINE void
    mulWide(V a, V b, V& hi, V& lo)
    {
        const V mask32 = _mm256_set1_epi64x(0xffffffffll);
        V a_hi = _mm256_srli_epi64(a, 32);
        V b_hi = _mm256_srli_epi64(b, 32);
        V p0 = _mm256_mul_epu32(a, b);
        V p1 = _mm256_mul_epu32(a_hi, b);
        V p2 = _mm256_mul_epu32(a, b_hi);
        V p3 = _mm256_mul_epu32(a_hi, b_hi);
        V mid = _mm256_add_epi64(
            _mm256_add_epi64(_mm256_srli_epi64(p0, 32),
                             _mm256_and_si256(p1, mask32)),
            _mm256_and_si256(p2, mask32));
        hi = _mm256_add_epi64(
            _mm256_add_epi64(p3, _mm256_srli_epi64(mid, 32)),
            _mm256_add_epi64(_mm256_srli_epi64(p1, 32),
                             _mm256_srli_epi64(p2, 32)));
        lo = _mm256_or_si256(_mm256_and_si256(p0, mask32),
                             _mm256_slli_epi64(mid, 32));
    }

    static void
    interleave2(V u, V v, V& out_lo, V& out_hi)
    {
        V unp_lo = _mm256_unpacklo_epi64(u, v); // (u0, v0, u2, v2)
        V unp_hi = _mm256_unpackhi_epi64(u, v); // (u1, v1, u3, v3)
        out_lo = _mm256_permute2x128_si256(unp_lo, unp_hi, 0x20);
        out_hi = _mm256_permute2x128_si256(unp_lo, unp_hi, 0x31);
    }

    static void
    deinterleave2(V a, V b, V& even, V& odd)
    {
        V t0 = _mm256_permute2x128_si256(a, b, 0x20); // (a0, a1, b0, b1)
        V t1 = _mm256_permute2x128_si256(a, b, 0x31); // (a2, a3, b2, b3)
        even = _mm256_unpacklo_epi64(t0, t1);
        odd = _mm256_unpackhi_epi64(t0, t1);
    }

    static V reverse(V x) { return _mm256_permute4x64_epi64(x, 0x1b); }

    static void
    deinterleave2Reversed(V a, V b, V& even, V& odd)
    {
        // The reversal rides on the lane selects: c = (a, b) = c0..c7.
        V t0 = _mm256_permute2x128_si256(a, b, 0x13); // (c6, c7, c2, c3)
        V t1 = _mm256_permute2x128_si256(a, b, 0x02); // (c4, c5, c0, c1)
        even = _mm256_unpackhi_epi64(t0, t1);         // (c7, c5, c3, c1)
        odd = _mm256_unpacklo_epi64(t0, t1);          // (c6, c4, c2, c0)
    }
};

} // namespace simd
} // namespace mqx
