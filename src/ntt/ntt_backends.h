/**
 * @file
 * Internal per-backend entry points of the one Pease kernel body
 * (ntt/pease_impl.h). Every tier compiles the same four entry points —
 * per-channel forward and inverse in any PeaseShape, and the IL-lane
 * batch forms (whose inverse takes the merged, mirrored table only) —
 * in a translation unit built with its ISA flags; the
 * dispatcher in ntt.cc routes the cyclic transforms (NttPlan twiddles)
 * and the merged negacyclic ones (NegacyclicTables twiddles) through
 * one per-tier table of them. Not part of the public API.
 */
#pragma once

#include "core/backend.h"
#include "ntt/negacyclic.h"
#include "ntt/plan.h"

namespace mqx {
namespace ntt {
namespace detail {

/**
 * One direction's twiddles as the Pease body reads them. Stage s,
 * butterfly j multiplies by entry offset(s) + (j mod 2^s):
 *
 *  - offset(s) = 0 on the cyclic plan's n/2-entry tables, entry k =
 *    omega^(+-brev(k));
 *  - offset(s) = 2^s on the merged negacyclic n-entry table, entry k =
 *    psi^brev(k).
 *
 * The merged inverse reads that same forward table mirrored within
 * each level: stage s, butterfly j reads entry offset(s) + 2^s - 1 -
 * (j mod 2^s) and multiplies v - u instead of u - v. For s >= 1,
 * psi^-brev(2^s + b) = q - psi^brev(2^(s+1) - 1 - b) (the reversed,
 * negated zeta walk of Dilithium's reference inverse NTT), so the
 * product is the same and no twiddle is ever negated.
 *
 * The inverse's last stage (s = 0) reads no entry: it multiplies its
 * sum branch by last_sum and its difference branch by last_diff, so
 * n^-1 costs no pass of its own — n^-1 and n^-1 on the cyclic plan,
 * n^-1 and psi^-(n/2) * n^-1 on the negacyclic tables.
 */
struct PeaseTwiddles
{
    DConstSpan w;  ///< twiddle values, canonical
    DConstSpan wq; ///< their Shoup companions
    bool per_level = false;
    bool mirrored = false; ///< the merged inverse on the forward table
    U128 last_sum{}, last_sum_q{}, last_diff{}, last_diff_q{};

    size_t offset(int s) const { return per_level ? size_t{1} << s : 0; }
};

/** How one transform runs; fusion is already resolved (never Auto). */
struct PeaseShape
{
    Reduction red = Reduction::ShoupLazy;
    StageFusion fusion = StageFusion::Radix2;
};

inline PeaseTwiddles
forwardTwiddles(const NttPlan& plan)
{
    return {plan.forwardTwiddles().span(),
            plan.forwardTwiddlesShoup().span(), false};
}

inline PeaseTwiddles
inverseTwiddles(const NttPlan& plan)
{
    return {plan.inverseTwiddles().span(),
            plan.inverseTwiddlesShoup().span(),
            false,
            false,
            plan.nInv(),
            plan.nInvShoup(),
            plan.nInv(),
            plan.nInvShoup()};
}

inline PeaseTwiddles
forwardTwiddles(const NegacyclicTables& tables)
{
    return {tables.twiddles().span(), tables.twiddlesShoup().span(), true};
}

inline PeaseTwiddles
inverseTwiddles(const NegacyclicTables& tables)
{
    const NttPlan& plan = tables.plan();
    return {tables.twiddles().span(),
            tables.twiddlesShoup().span(),
            true,
            true,
            plan.nInv(),
            plan.nInvShoup(),
            tables.lastDiff(),
            tables.lastDiffShoup()};
}

/**
 * The Fig. 6 ablation (ntt_mqx_ablation.cc, MQX_BUILD_AVX512): one MQX
 * feature variant per channel, in Table-2 emulation or (pisa = true)
 * PISA proxy mode; MqxVariant::Full runs the MQX tier entry points.
 */
void forwardMqxImpl(bool pisa, MqxVariant, const NttPlan&,
                    const PeaseTwiddles&, DConstSpan, DSpan, DSpan,
                    PeaseShape);
void inverseMqxImpl(bool pisa, MqxVariant, const NttPlan&,
                    const PeaseTwiddles&, DConstSpan, DSpan, DSpan,
                    PeaseShape);

} // namespace detail

namespace backends {

using detail::PeaseShape;
using detail::PeaseTwiddles;

void forwardScalar(const NttPlan&, const PeaseTwiddles&, DConstSpan, DSpan,
                   DSpan, PeaseShape);
void inverseScalar(const NttPlan&, const PeaseTwiddles&, DConstSpan, DSpan,
                   DSpan, PeaseShape);
void forwardBatchScalar(const NttPlan&, const PeaseTwiddles&, size_t il,
                        DConstSpan, DSpan, DSpan);
void inverseBatchScalar(const NttPlan&, const PeaseTwiddles&, size_t il,
                        DConstSpan, DSpan, DSpan);

void forwardPortable(const NttPlan&, const PeaseTwiddles&, DConstSpan, DSpan,
                     DSpan, PeaseShape);
void inversePortable(const NttPlan&, const PeaseTwiddles&, DConstSpan, DSpan,
                     DSpan, PeaseShape);
void forwardBatchPortable(const NttPlan&, const PeaseTwiddles&, size_t il,
                          DConstSpan, DSpan, DSpan);
void inverseBatchPortable(const NttPlan&, const PeaseTwiddles&, size_t il,
                          DConstSpan, DSpan, DSpan);

void forwardAvx2(const NttPlan&, const PeaseTwiddles&, DConstSpan, DSpan,
                 DSpan, PeaseShape);
void inverseAvx2(const NttPlan&, const PeaseTwiddles&, DConstSpan, DSpan,
                 DSpan, PeaseShape);
void forwardBatchAvx2(const NttPlan&, const PeaseTwiddles&, size_t il,
                      DConstSpan, DSpan, DSpan);
void inverseBatchAvx2(const NttPlan&, const PeaseTwiddles&, size_t il,
                      DConstSpan, DSpan, DSpan);

void forwardAvx512(const NttPlan&, const PeaseTwiddles&, DConstSpan, DSpan,
                   DSpan, PeaseShape);
void inverseAvx512(const NttPlan&, const PeaseTwiddles&, DConstSpan, DSpan,
                   DSpan, PeaseShape);
void forwardBatchAvx512(const NttPlan&, const PeaseTwiddles&, size_t il,
                        DConstSpan, DSpan, DSpan);
void inverseBatchAvx512(const NttPlan&, const PeaseTwiddles&, size_t il,
                        DConstSpan, DSpan, DSpan);

// The same AVX-512 tier body built on IFMA 52-bit limbs
// (ntt_avx512_ifma.cc, MQX_BUILD_AVX512_IFMA): word-identical to the
// Avx512 entry points; ntt.cc picks it when mqx::avx512Ifma().
void forwardAvx512Ifma(const NttPlan&, const PeaseTwiddles&, DConstSpan,
                       DSpan, DSpan, PeaseShape);
void inverseAvx512Ifma(const NttPlan&, const PeaseTwiddles&, DConstSpan,
                       DSpan, DSpan, PeaseShape);
void forwardBatchAvx512Ifma(const NttPlan&, const PeaseTwiddles&, size_t il,
                            DConstSpan, DSpan, DSpan);
void inverseBatchAvx512Ifma(const NttPlan&, const PeaseTwiddles&, size_t il,
                            DConstSpan, DSpan, DSpan);

// Raw Shoup products left in [0, 2q) (no canonicalization), for the
// word-level tests of each AVX-512 multiply against mod::mulModShoup.
void vmulShoupLazyAvx512(const Modulus&, DConstSpan, DConstSpan, DConstSpan,
                         DSpan);
void vmulShoupLazyAvx512Ifma(const Modulus&, DConstSpan, DConstSpan,
                             DConstSpan, DSpan);

// MQX, full feature set: the tier body in Table-2 emulation (correct
// words) and in PISA proxy mode (timing-faithful, wrong words by design).
void forwardMqxEmulate(const NttPlan&, const PeaseTwiddles&, DConstSpan,
                       DSpan, DSpan, PeaseShape);
void inverseMqxEmulate(const NttPlan&, const PeaseTwiddles&, DConstSpan,
                       DSpan, DSpan, PeaseShape);
void forwardBatchMqxEmulate(const NttPlan&, const PeaseTwiddles&, size_t il,
                            DConstSpan, DSpan, DSpan);
void inverseBatchMqxEmulate(const NttPlan&, const PeaseTwiddles&, size_t il,
                            DConstSpan, DSpan, DSpan);

void forwardMqxPisa(const NttPlan&, const PeaseTwiddles&, DConstSpan, DSpan,
                    DSpan, PeaseShape);
void inverseMqxPisa(const NttPlan&, const PeaseTwiddles&, DConstSpan, DSpan,
                    DSpan, PeaseShape);
void forwardBatchMqxPisa(const NttPlan&, const PeaseTwiddles&, size_t il,
                         DConstSpan, DSpan, DSpan);
void inverseBatchMqxPisa(const NttPlan&, const PeaseTwiddles&, size_t il,
                         DConstSpan, DSpan, DSpan);

} // namespace backends
} // namespace ntt
} // namespace mqx
