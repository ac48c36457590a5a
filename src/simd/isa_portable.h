/**
 * @file
 * Portable reference implementation of the SIMD ISA policy concept.
 *
 * Every vector backend in mqxlib implements the same small policy
 * interface; the kernels in simd/dw_kernels.h are written once against
 * it. PortableIsa is the plain-C++ model: V is an 8-lane uint64 array,
 * M an 8-bit lane mask. It defines the semantics the intrinsic-based
 * policies must match (the test suite verifies lane-exact agreement) and
 * doubles as the fallback backend on CPUs without AVX.
 *
 * Policy interface (all static):
 *   types   V (vector), M (mask); constant kLanes
 *   data    set1, loadu, storeu
 *   arith   add, sub, mullo, and_, or_, srlCount, sllCount
 *   compare cmpLtU, cmpLeU, cmpEqU, cmpGtU  (unsigned per-lane -> M)
 *   mask    maskOr, maskAnd, maskNot, maskZero
 *   select  maskAdd, maskSub (merge-masked), blend (m ? b : a)
 *   carry   adc, sbb (Table 1 / Table 2), mulWide (widening multiply)
 *   shuffle interleave2, deinterleave2 (Pease NTT stage wiring),
 *           reverse, deinterleave2Reversed (mirrored twiddle loads)
 */
#pragma once

#include <array>
#include <cstdint>

#include "core/config.h"
#include "u128/u128.h"

namespace mqx {
namespace simd {

/** Plain-array SIMD policy; semantic reference for all backends. */
struct PortableIsa
{
    static constexpr size_t kLanes = 8;
    static constexpr bool kIsMqx = false;
    /// adc/sbb are one scalar add-with-carry per lane here, cheaper than
    /// the compare-and-mask headroom form (simd/dw_kernels.h).
    static constexpr bool kCarryChain = true;
    static constexpr bool kHasPredicated = false;
    static constexpr bool kHasIfma = false; ///< see isa_avx512_ifma.h

    struct V
    {
        std::array<uint64_t, kLanes> l{};
    };

    using M = uint8_t; // bit i = lane i

    static V
    set1(uint64_t x)
    {
        V r;
        r.l.fill(x);
        return r;
    }

    static V
    loadu(const uint64_t* p)
    {
        V r;
        for (size_t i = 0; i < kLanes; ++i)
            r.l[i] = p[i];
        return r;
    }

    static void
    storeu(uint64_t* p, V v)
    {
        for (size_t i = 0; i < kLanes; ++i)
            p[i] = v.l[i];
    }

    static V
    add(V a, V b)
    {
        V r;
        for (size_t i = 0; i < kLanes; ++i)
            r.l[i] = a.l[i] + b.l[i];
        return r;
    }

    static V
    sub(V a, V b)
    {
        V r;
        for (size_t i = 0; i < kLanes; ++i)
            r.l[i] = a.l[i] - b.l[i];
        return r;
    }

    static V
    mullo(V a, V b)
    {
        V r;
        for (size_t i = 0; i < kLanes; ++i)
            r.l[i] = a.l[i] * b.l[i];
        return r;
    }

    static V
    and_(V a, V b)
    {
        V r;
        for (size_t i = 0; i < kLanes; ++i)
            r.l[i] = a.l[i] & b.l[i];
        return r;
    }

    static V
    or_(V a, V b)
    {
        V r;
        for (size_t i = 0; i < kLanes; ++i)
            r.l[i] = a.l[i] | b.l[i];
        return r;
    }

    /** Logical right shift by a uniform runtime count (>= 64 yields 0). */
    static V
    srlCount(V a, unsigned s)
    {
        V r;
        for (size_t i = 0; i < kLanes; ++i)
            r.l[i] = s >= 64 ? 0 : a.l[i] >> s;
        return r;
    }

    /** Logical left shift by a uniform runtime count (>= 64 yields 0). */
    static V
    sllCount(V a, unsigned s)
    {
        V r;
        for (size_t i = 0; i < kLanes; ++i)
            r.l[i] = s >= 64 ? 0 : a.l[i] << s;
        return r;
    }

    static M
    cmpLtU(V a, V b)
    {
        M m = 0;
        for (size_t i = 0; i < kLanes; ++i)
            m |= static_cast<M>((a.l[i] < b.l[i] ? 1 : 0) << i);
        return m;
    }

    static M
    cmpLeU(V a, V b)
    {
        M m = 0;
        for (size_t i = 0; i < kLanes; ++i)
            m |= static_cast<M>((a.l[i] <= b.l[i] ? 1 : 0) << i);
        return m;
    }

    static M
    cmpEqU(V a, V b)
    {
        M m = 0;
        for (size_t i = 0; i < kLanes; ++i)
            m |= static_cast<M>((a.l[i] == b.l[i] ? 1 : 0) << i);
        return m;
    }

    static M
    cmpGtU(V a, V b)
    {
        return cmpLtU(b, a);
    }

    static M maskOr(M a, M b) { return static_cast<M>(a | b); }
    static M maskAnd(M a, M b) { return static_cast<M>(a & b); }
    static M maskNot(M a) { return static_cast<M>(~a); }
    static M maskZero() { return 0; }
    static M initialCarryMask() { return 0; }

    /** Per-lane: m ? a + b : src. */
    static V
    maskAdd(V src, M m, V a, V b)
    {
        V r = src;
        for (size_t i = 0; i < kLanes; ++i) {
            if ((m >> i) & 1)
                r.l[i] = a.l[i] + b.l[i];
        }
        return r;
    }

    /** Per-lane: m ? a - b : src. */
    static V
    maskSub(V src, M m, V a, V b)
    {
        V r = src;
        for (size_t i = 0; i < kLanes; ++i) {
            if ((m >> i) & 1)
                r.l[i] = a.l[i] - b.l[i];
        }
        return r;
    }

    /** Per-lane: m ? b : a (matches _mm512_mask_blend semantics). */
    static V
    blend(M m, V a, V b)
    {
        V r;
        for (size_t i = 0; i < kLanes; ++i)
            r.l[i] = ((m >> i) & 1) ? b.l[i] : a.l[i];
        return r;
    }

    /** Add with carry-in/carry-out (Table 1 semantics). */
    static V
    adc(V a, V b, M ci, M& co)
    {
        V r;
        M c = 0;
        for (size_t i = 0; i < kLanes; ++i) {
            uint64_t out = 0;
            uint64_t carry = addc64(a.l[i], b.l[i],
                                    static_cast<uint64_t>((ci >> i) & 1), out);
            r.l[i] = out;
            c |= static_cast<M>(carry << i);
        }
        co = c;
        return r;
    }

    /** Subtract with borrow-in/borrow-out (Table 2 semantics). */
    static V
    sbb(V a, V b, M bi, M& bo)
    {
        V r;
        M c = 0;
        for (size_t i = 0; i < kLanes; ++i) {
            uint64_t out = 0;
            uint64_t borrow = subb64(a.l[i], b.l[i],
                                     static_cast<uint64_t>((bi >> i) & 1), out);
            r.l[i] = out;
            c |= static_cast<M>(borrow << i);
        }
        bo = c;
        return r;
    }

    /** Widening multiply: per-lane 64x64 -> (hi, lo) (Table 2). */
    static void
    mulWide(V a, V b, V& hi, V& lo)
    {
        for (size_t i = 0; i < kLanes; ++i)
            mulWide64(a.l[i], b.l[i], hi.l[i], lo.l[i]);
    }

    /**
     * Interleave two vectors element-wise:
     * out_lo = (u0, v0, u1, v1, ...), out_hi = (u_{L/2}, v_{L/2}, ...).
     * This is the Pease-stage output wiring y[2j] = u, y[2j+1] = v.
     */
    static void
    interleave2(V u, V v, V& out_lo, V& out_hi)
    {
        V a, b;
        for (size_t i = 0; i < kLanes / 2; ++i) {
            a.l[2 * i] = u.l[i];
            a.l[2 * i + 1] = v.l[i];
            b.l[2 * i] = u.l[kLanes / 2 + i];
            b.l[2 * i + 1] = v.l[kLanes / 2 + i];
        }
        out_lo = a;
        out_hi = b;
    }

    /** Inverse of interleave2: split into even- and odd-indexed lanes. */
    static void
    deinterleave2(V a, V b, V& even, V& odd)
    {
        V u, v;
        for (size_t i = 0; i < kLanes / 2; ++i) {
            u.l[i] = a.l[2 * i];
            v.l[i] = a.l[2 * i + 1];
            u.l[kLanes / 2 + i] = b.l[2 * i];
            v.l[kLanes / 2 + i] = b.l[2 * i + 1];
        }
        even = u;
        odd = v;
    }

    /** Lanes in reverse order: r[i] = x[kLanes - 1 - i]. */
    static V
    reverse(V x)
    {
        V r;
        for (size_t i = 0; i < kLanes; ++i)
            r.l[i] = x.l[kLanes - 1 - i];
        return r;
    }

    /**
     * deinterleave2 of the reversed concatenation c = (a, b):
     * even[i] = c[2 kLanes - 1 - 2i], odd[i] = c[2 kLanes - 2 - 2i].
     */
    static void
    deinterleave2Reversed(V a, V b, V& even, V& odd)
    {
        deinterleave2(reverse(b), reverse(a), even, odd);
    }
};

} // namespace simd
} // namespace mqx
