/**
 * @file
 * MQX — the multi-word extension (paper Section 4).
 *
 * MQX adds three SIMD instructions to AVX-512 (Table 2):
 *
 *   _mm512_mul_epi64  widening multiply: per lane, 64x64 -> (hi, lo)
 *   _mm512_adc_epi64  add with carry-in mask, carry-out mask
 *   _mm512_sbb_epi64  subtract with borrow-in mask, borrow-out mask
 *
 * The instructions do not exist in silicon, so MqxIsa implements them in
 * two modes (Section 4.2):
 *
 *  - MqxMode::Emulate — per-lane scalar emulation exactly per Table 2.
 *    Bit-exact; used by every correctness test. ("With that flag turned
 *    on, each MQX instruction is emulated by a scalar implementation.")
 *
 *  - MqxMode::Pisa — performance projection using proxy ISA: each MQX
 *    instruction maps to its structurally-closest real AVX-512
 *    instruction (Table 3): mul -> vpmullq, adc -> masked vpaddq,
 *    sbb -> masked vpsubq. The results are numerically wrong by design;
 *    only the timing is meaningful. Initial carry masks are loaded from
 *    an opaque global so the compiler cannot constant-fold the masked
 *    proxies away (the paper: "we carefully inspect the compiler-
 *    generated assembly code to make sure no instructions are
 *    incorrectly pruned").
 *
 * The MqxFeatures template parameter reproduces the Fig. 6 ablation:
 * +M (widening multiply only), +C (carry/borrow only), +M,C (full MQX),
 * +Mh,C (multiply-high instead of full widening multiply, two
 * instructions), and +M,C,P (predicated adc/sbb variants). Features that
 * are off fall back to the AVX-512 emulation sequences.
 *
 * Include only from TUs compiled with AVX-512 flags.
 */
#pragma once

#include <immintrin.h>

#include <cstdint>

#include "core/config.h"
#include "simd/isa_avx512.h"
#include "u128/u128.h"

#if !MQX_TU_HAS_AVX512
#error "isa_mqx.h included in a TU without AVX-512 codegen flags"
#endif

namespace mqx {
namespace mqxisa {

/** Execution mode for the proposed instructions (Section 4.2). */
enum class MqxMode
{
    Emulate, ///< Table-2 scalar emulation: correct results
    Pisa,    ///< Table-3 proxy instructions: projected timing, bogus data
};

/** Which MQX sub-features are enabled (Fig. 6 ablation axes). */
struct MqxFeatures
{
    bool wide_mul = true;    ///< _mm512_mul_epi64 (full widening multiply)
    bool mulhi_only = false; ///< model mul as separate mullo + mulhi (+Mh)
    bool carry = true;       ///< _mm512_adc/_mm512_sbb
    bool predicated = false; ///< predicated adc/sbb (+P)

    constexpr bool
    operator==(const MqxFeatures&) const = default;
};

inline constexpr MqxFeatures kMqxFull{true, false, true, false};     // +M,C
inline constexpr MqxFeatures kMqxMulOnly{true, false, false, false}; // +M
inline constexpr MqxFeatures kMqxCarryOnly{false, false, true, false}; // +C
inline constexpr MqxFeatures kMqxMulhi{false, true, true, false};    // +Mh,C
inline constexpr MqxFeatures kMqxPredicated{true, false, true, true}; // +M,C,P

/**
 * Opaque zero values defined in mqx_isa.cc. Reading them defeats
 * constant folding of the PISA proxy sequences without adding work to
 * the measured loop body (one load per kernel call).
 */
extern volatile uint8_t g_pisa_opaque_zero_mask;
extern uint64_t g_pisa_opaque_zero_vec[8];

/**
 * The MQX SIMD policy: Avx512Isa with adc/sbb/mulWide (and optionally
 * the predicated forms) replaced per mode and feature set.
 */
template <MqxMode Mode, MqxFeatures F = kMqxFull>
struct MqxIsa : simd::Avx512Isa
{
    using Base = simd::Avx512Isa;
    using V = Base::V;
    using M = Base::M;

    static constexpr bool kIsMqx = true;
    /// The paper's counts (PISA, Table 6, Fig. 6) assume adc/sbb chains.
    static constexpr bool kCarryChain = true;
    static constexpr bool kHasPredicated = F.predicated;
    static constexpr bool kHasIfma = false;
    static constexpr MqxMode kMode = Mode;
    static constexpr MqxFeatures kFeatures = F;

    static M
    initialCarryMask()
    {
        if constexpr (Mode == MqxMode::Pisa)
            return static_cast<M>(g_pisa_opaque_zero_mask);
        else
            return 0;
    }

    // -- _mm512_adc_epi64 ------------------------------------------------

    static V
    adc(V a, V b, M ci, M& co)
    {
        if constexpr (!F.carry) {
            return Base::adc(a, b, ci, co);
        } else if constexpr (Mode == MqxMode::Emulate) {
            alignas(64) uint64_t av[8], bv[8], cv[8];
            _mm512_store_si512(reinterpret_cast<__m512i*>(av), a);
            _mm512_store_si512(reinterpret_cast<__m512i*>(bv), b);
            M out = 0;
            for (int i = 0; i < 8; ++i) {
                // Table 2: co[i] = ((i128) a[i] + b[i] + ci[i]) >> 64.
                uint64_t carry = addc64(av[i], bv[i],
                                        static_cast<uint64_t>((ci >> i) & 1),
                                        cv[i]);
                out = static_cast<M>(out | (carry << i));
            }
            co = out;
            return _mm512_load_si512(reinterpret_cast<const __m512i*>(cv));
        } else {
            // PISA proxy (Table 3): one masked vector add.
            co = ci;
            return _mm512_mask_add_epi64(a, ci, a, b);
        }
    }

    // -- _mm512_sbb_epi64 ------------------------------------------------

    static V
    sbb(V a, V b, M bi, M& bo)
    {
        if constexpr (!F.carry) {
            return Base::sbb(a, b, bi, bo);
        } else if constexpr (Mode == MqxMode::Emulate) {
            alignas(64) uint64_t av[8], bv[8], cv[8];
            _mm512_store_si512(reinterpret_cast<__m512i*>(av), a);
            _mm512_store_si512(reinterpret_cast<__m512i*>(bv), b);
            M out = 0;
            for (int i = 0; i < 8; ++i) {
                // Table 2: bo[i] = ((i128) a[i] - b[i] - bi[i]) >> 127.
                uint64_t borrow = subb64(av[i], bv[i],
                                         static_cast<uint64_t>((bi >> i) & 1),
                                         cv[i]);
                out = static_cast<M>(out | (borrow << i));
            }
            bo = out;
            return _mm512_load_si512(reinterpret_cast<const __m512i*>(cv));
        } else {
            // PISA proxy (Table 3): one masked vector subtract.
            bo = bi;
            return _mm512_mask_sub_epi64(a, bi, a, b);
        }
    }

    // -- _mm512_mul_epi64 ------------------------------------------------

    static void
    mulWide(V a, V b, V& hi, V& lo)
    {
        if constexpr (F.mulhi_only) {
            // +Mh,C (Section 5.5): multiply-high as a second instruction
            // with multiply-low latency.
            if constexpr (Mode == MqxMode::Emulate) {
                mulWideEmu(a, b, hi, lo);
            } else {
                lo = _mm512_mullo_epi64(a, b);
                // Distinct instruction for the high half; XOR with an
                // opaque zero keeps the compiler from merging the two
                // multiplies (slightly conservative: one extra cheap op).
                V tweak = _mm512_loadu_si512(
                    const_cast<const uint64_t*>(g_pisa_opaque_zero_vec));
                hi = _mm512_mullo_epi64(_mm512_xor_si512(a, tweak), b);
            }
        } else if constexpr (!F.wide_mul) {
            Base::mulWide(a, b, hi, lo);
        } else if constexpr (Mode == MqxMode::Emulate) {
            mulWideEmu(a, b, hi, lo);
        } else {
            // PISA proxy (Table 3): the widening multiply is modeled as a
            // single vpmullq; both halves alias its result.
            lo = _mm512_mullo_epi64(a, b);
            hi = lo;
        }
    }

    // -- Predicated forms (+P, Section 5.5) -------------------------------

    /** pred ? a + b + ci : a; no carry-out. */
    static V
    pAdc(V a, V b, M ci, M pred)
    {
        static_assert(F.predicated, "pAdc requires the +P feature");
        if constexpr (Mode == MqxMode::Emulate) {
            alignas(64) uint64_t av[8], bv[8], cv[8];
            _mm512_store_si512(reinterpret_cast<__m512i*>(av), a);
            _mm512_store_si512(reinterpret_cast<__m512i*>(bv), b);
            for (int i = 0; i < 8; ++i) {
                uint64_t sum = 0;
                addc64(av[i], bv[i], static_cast<uint64_t>((ci >> i) & 1),
                       sum);
                cv[i] = ((pred >> i) & 1) ? sum : av[i];
            }
            return _mm512_load_si512(reinterpret_cast<const __m512i*>(cv));
        } else {
            return _mm512_mask_add_epi64(a, pred, a, b);
        }
    }

    /** pred ? a - b - bi : a; no borrow-out. */
    static V
    pSbb(V a, V b, M bi, M pred)
    {
        static_assert(F.predicated, "pSbb requires the +P feature");
        if constexpr (Mode == MqxMode::Emulate) {
            alignas(64) uint64_t av[8], bv[8], cv[8];
            _mm512_store_si512(reinterpret_cast<__m512i*>(av), a);
            _mm512_store_si512(reinterpret_cast<__m512i*>(bv), b);
            for (int i = 0; i < 8; ++i) {
                uint64_t diff = 0;
                subb64(av[i], bv[i], static_cast<uint64_t>((bi >> i) & 1),
                       diff);
                cv[i] = ((pred >> i) & 1) ? diff : av[i];
            }
            return _mm512_load_si512(reinterpret_cast<const __m512i*>(cv));
        } else {
            return _mm512_mask_sub_epi64(a, pred, a, b);
        }
    }

  private:
    /** Exact per-lane widening multiply (Table 2 emulation). */
    static void
    mulWideEmu(V a, V b, V& hi, V& lo)
    {
        alignas(64) uint64_t av[8], bv[8], hv[8], lv[8];
        _mm512_store_si512(reinterpret_cast<__m512i*>(av), a);
        _mm512_store_si512(reinterpret_cast<__m512i*>(bv), b);
        for (int i = 0; i < 8; ++i)
            mulWide64(av[i], bv[i], hv[i], lv[i]);
        hi = _mm512_load_si512(reinterpret_cast<const __m512i*>(hv));
        lo = _mm512_load_si512(reinterpret_cast<const __m512i*>(lv));
    }
};

/**
 * Paper-style intrinsic spellings (Table 2) over the emulation mode, for
 * examples and tests that want to read like the paper's listings.
 */
inline void
mqx_mm512_mul_epi64(__m512i* ch, __m512i* cl, __m512i a, __m512i b)
{
    MqxIsa<MqxMode::Emulate>::mulWide(a, b, *ch, *cl);
}

inline __m512i
mqx_mm512_adc_epi64(__m512i a, __m512i b, __mmask8 ci, __mmask8* co)
{
    return MqxIsa<MqxMode::Emulate>::adc(a, b, ci, *co);
}

inline __m512i
mqx_mm512_sbb_epi64(__m512i a, __m512i b, __mmask8 bi, __mmask8* bo)
{
    return MqxIsa<MqxMode::Emulate>::sbb(a, b, bi, *bo);
}

} // namespace mqxisa
} // namespace mqx
