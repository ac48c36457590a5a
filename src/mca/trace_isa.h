/**
 * @file
 * A SIMD ISA policy that *records* instructions instead of executing
 * them. Running the real kernel templates (simd/dw_kernels.h) with
 * TraceIsa yields the exact instruction sequence each backend executes —
 * the machine-code analysis (Listing 4) therefore can never drift from
 * the shipped kernels.
 *
 * The mapping from policy ops to mnemonics mirrors what the intrinsic
 * headers emit: e.g. Avx512Isa::mulWide expands to one vpmullq plus four
 * vpmuludq partial products with shift/add/and fixups; Avx512Isa::adc
 * expands to the Table-1 six-instruction sequence. The MQX trace
 * variants emit the single proposed instructions instead, and the IFMA
 * variant runs the 52-bit-limb multiplies (vpmadd52luq/huq, with VBMI2
 * funnel shifts and vpshufb for the limb splits and joins).
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.h"

namespace mqx {
namespace mca {

/** A recorded instruction (mnemonic resolved later via the ISA table). */
struct TracedInstr
{
    std::string mnemonic;
};

/** The recording sink; one active trace at a time (not thread-safe). */
class TraceSink
{
  public:
    static TraceSink& instance();

    void clear() { trace_.clear(); }
    void emit(const char* mnemonic) { trace_.push_back({mnemonic}); }
    const std::vector<TracedInstr>& trace() const { return trace_; }
    std::vector<TracedInstr> take() { return std::move(trace_); }

  private:
    std::vector<TracedInstr> trace_;
};

/** Feature knobs shared by the basic and MQX trace policies. */
struct TraceFeatures
{
    bool mqx_carry = false;     ///< emit vpadcq/vpsbbq
    bool mqx_wide_mul = false;  ///< emit single vpmulq
    bool mqx_mulhi = false;     ///< emit vpmullq + vpmulhq pair
    bool predicated = false;    ///< expose pAdc/pSbb
    bool ifma = false;          ///< Shoup multiply on vpmadd52{l,h}uq limbs

    constexpr bool operator==(const TraceFeatures&) const = default;
};

inline constexpr TraceFeatures kTraceAvx512{false, false, false, false};
inline constexpr TraceFeatures kTraceMqxFull{true, true, false, false};
inline constexpr TraceFeatures kTraceMqxMulOnly{false, true, false, false};
inline constexpr TraceFeatures kTraceMqxCarryOnly{true, false, false, false};
inline constexpr TraceFeatures kTraceMqxMulhi{true, false, true, false};
inline constexpr TraceFeatures kTraceMqxPred{true, true, false, true};
inline constexpr TraceFeatures kTraceAvx512Ifma{false, false, false, false,
                                                true};

/**
 * The recording policy. V and M are value-free tokens; every operation
 * appends mnemonics to the TraceSink.
 */
template <TraceFeatures F>
struct TraceIsa
{
    static constexpr size_t kLanes = 8;
    static constexpr bool kIsMqx = F.mqx_carry || F.mqx_wide_mul || F.mqx_mulhi;
    static constexpr bool kCarryChain = kIsMqx; ///< as Avx512Isa / MqxIsa
    static constexpr bool kHasPredicated = F.predicated;
    static constexpr bool kHasIfma = F.ifma;

    struct V
    {
    };

    struct M
    {
    };

    static void emit(const char* m) { TraceSink::instance().emit(m); }

    static V
    set1(uint64_t)
    {
        emit("vpbroadcastq");
        return {};
    }

    static V
    loadu(const uint64_t*)
    {
        emit("vmovdqu64.load");
        return {};
    }

    static void storeu(uint64_t*, V) { emit("vmovdqu64.store"); }

    static V add(V, V) { emit("vpaddq"); return {}; }
    static V sub(V, V) { emit("vpsubq"); return {}; }
    static V mullo(V, V) { emit("vpmullq"); return {}; }
    static V and_(V, V) { emit("vpandq"); return {}; }
    static V or_(V, V) { emit("vporq"); return {}; }
    static V srlCount(V, unsigned) { emit("vpsrlq"); return {}; }
    static V sllCount(V, unsigned) { emit("vpsllq"); return {}; }

    static M cmpLtU(V, V) { emit("vpcmpuq"); return {}; }
    static M cmpLeU(V, V) { emit("vpcmpuq"); return {}; }
    static M cmpGtU(V, V) { emit("vpcmpuq"); return {}; }
    static M cmpEqU(V, V) { emit("vpcmpeqq"); return {}; }

    static M maskOr(M, M) { emit("korb"); return {}; }
    static M maskAnd(M, M) { emit("kandb"); return {}; }
    static M maskNot(M) { emit("knotb"); return {}; }
    static M maskZero() { return {}; }
    static M initialCarryMask() { return {}; }

    static V maskAdd(V, M, V, V) { emit("vpaddq{k}"); return {}; }
    static V maskSub(V, M, V, V) { emit("vpsubq{k}"); return {}; }
    static V blend(M, V, V) { emit("vpblendmq"); return {}; }

    static V
    adc(V a, V b, M ci, M& co)
    {
        if constexpr (F.mqx_carry) {
            emit("vpadcq");
            co = {};
            return {};
        } else {
            // Table-1 AVX-512 sequence (Avx512Isa::adc).
            V t0 = add(a, b);
            V one = set1(1);
            V t1 = maskAdd(t0, ci, t0, one);
            M q0 = cmpLtU(t1, a);
            M q1 = cmpLtU(t1, b);
            co = maskOr(q0, q1);
            return t1;
        }
    }

    static V
    sbb(V a, V b, M bi, M& bo)
    {
        if constexpr (F.mqx_carry) {
            emit("vpsbbq");
            bo = {};
            return {};
        } else {
            // Avx512Isa::sbb emulation sequence.
            V t0 = sub(a, b);
            V one = set1(1);
            M q0 = cmpLtU(a, b);
            emit("vmovdqa64"); // maskz_mov of the borrow-in
            M q1 = cmpLtU(t0, t0);
            V t1 = maskSub(t0, bi, t0, one);
            bo = maskOr(q0, q1);
            return t1;
        }
    }

    static void
    mulWide(V a, V b, V& hi, V& lo)
    {
        if constexpr (F.mqx_mulhi) {
            emit("vpmullq");
            emit("vpmulhq");
            hi = {};
            lo = {};
        } else if constexpr (F.mqx_wide_mul) {
            emit("vpmulq");
            hi = {};
            lo = {};
        } else {
            // Avx512Isa::mulWide emulation: mask constant + two operand
            // splits, four 32-bit partial products, shift/add/and fixups,
            // and the vpmullq low half.
            (void)a;
            (void)b;
            emit("vpsrlq");   // a_hi
            emit("vpsrlq");   // b_hi
            emit("vpmuludq"); // p0
            emit("vpmuludq"); // p1
            emit("vpmuludq"); // p2
            emit("vpmuludq"); // p3
            emit("vpsrlq");   // p0 >> 32
            emit("vpandq");   // p1 & mask
            emit("vpaddq");
            emit("vpandq");   // p2 & mask
            emit("vpaddq");   // mid
            emit("vpsrlq");   // mid >> 32
            emit("vpaddq");
            emit("vpsrlq");   // p1 >> 32
            emit("vpsrlq");   // p2 >> 32
            emit("vpaddq");
            emit("vpaddq");   // hi
            emit("vpmullq");  // lo
            hi = {};
            lo = {};
        }
    }

    // Avx512IfmaIsa primitives (only instantiated when F.ifma).
    static V madd52lo(V, V, V) { emit("vpmadd52luq"); return {}; }
    static V madd52hi(V, V, V) { emit("vpmadd52huq"); return {}; }
    template <unsigned k>
    static V srli(V) { emit("vpsrlq"); return {}; }
    template <unsigned k>
    static V rotli(V) { emit("vprolq"); return {}; }
    template <unsigned k>
    static V shrd(V, V) { emit("vpshrdq"); return {}; }
    static V shrdv(V, V, V) { emit("vpshrdvq"); return {}; }
    template <unsigned kBytes>
    static V srliBytes(V) { emit("vpshufb"); return {}; }

    static V
    pAdc(V, V, M, M)
    {
        emit("vpadcq{p}");
        return {};
    }

    static V
    pSbb(V, V, M, M)
    {
        emit("vpsbbq{p}");
        return {};
    }

    static void
    interleave2(V, V, V& out_lo, V& out_hi)
    {
        emit("vpermt2q");
        emit("vpermt2q");
        out_lo = {};
        out_hi = {};
    }

    static void
    deinterleave2(V, V, V& even, V& odd)
    {
        emit("vpermt2q");
        emit("vpermt2q");
        even = {};
        odd = {};
    }
};

} // namespace mca
} // namespace mqx
