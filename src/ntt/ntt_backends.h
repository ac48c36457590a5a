/**
 * @file
 * Internal per-backend NTT entry points. Each lives in a translation
 * unit compiled with the matching ISA flags; the public dispatcher in
 * ntt.cc routes to them. Not part of the public API.
 */
#pragma once

#include "core/backend.h"
#include "ntt/plan.h"

namespace mqx {
namespace ntt {
namespace backends {

void forwardScalar(const NttPlan&, DConstSpan, DSpan, DSpan, MulAlgo,
                   Reduction, StageFusion);
void inverseScalar(const NttPlan&, DConstSpan, DSpan, DSpan, MulAlgo,
                   Reduction, StageFusion);

void forwardPortable(const NttPlan&, DConstSpan, DSpan, DSpan, MulAlgo,
                     Reduction, StageFusion);
void inversePortable(const NttPlan&, DConstSpan, DSpan, DSpan, MulAlgo,
                     Reduction, StageFusion);

void forwardAvx2(const NttPlan&, DConstSpan, DSpan, DSpan, MulAlgo,
                 Reduction, StageFusion);
void inverseAvx2(const NttPlan&, DConstSpan, DSpan, DSpan, MulAlgo,
                 Reduction, StageFusion);

void forwardAvx512(const NttPlan&, DConstSpan, DSpan, DSpan, MulAlgo,
                   Reduction, StageFusion);
void inverseAvx512(const NttPlan&, DConstSpan, DSpan, DSpan, MulAlgo,
                   Reduction, StageFusion);

// The same AVX-512 tier body built on IFMA 52-bit limbs
// (ntt_avx512_ifma.cc, MQX_BUILD_AVX512_IFMA): word-identical to the
// Avx512 entry points; ntt.cc picks it when mqx::avx512Ifma().
void forwardAvx512Ifma(const NttPlan&, DConstSpan, DSpan, DSpan, MulAlgo,
                       Reduction, StageFusion);
void inverseAvx512Ifma(const NttPlan&, DConstSpan, DSpan, DSpan, MulAlgo,
                       Reduction, StageFusion);

// Raw Shoup products left in [0, 2q) (no canonicalization), for the
// word-level tests of each AVX-512 multiply against mod::mulModShoup.
void vmulShoupLazyAvx512(const Modulus&, DConstSpan, DConstSpan, DConstSpan,
                         DSpan);
void vmulShoupLazyAvx512Ifma(const Modulus&, DConstSpan, DConstSpan,
                             DConstSpan, DSpan);

void forwardMqxImpl(const NttPlan&, MqxVariant, bool pisa, DConstSpan, DSpan,
                    DSpan, MulAlgo, Reduction, StageFusion);
void inverseMqxImpl(const NttPlan&, MqxVariant, bool pisa, DConstSpan, DSpan,
                    DSpan, MulAlgo, Reduction, StageFusion);

// Interleaved batch entry points (ROADMAP item 2): buffers are
// il * plan.n() words per half, packed by batch::packLanes. Always the
// radix-2 Shoup-lazy wiring — word-identical per lane to every
// per-channel variant.
void forwardBatchScalar(const NttPlan&, size_t il, DConstSpan, DSpan, DSpan,
                        MulAlgo);
void inverseBatchScalar(const NttPlan&, size_t il, DConstSpan, DSpan, DSpan,
                        MulAlgo);

void forwardBatchPortable(const NttPlan&, size_t il, DConstSpan, DSpan, DSpan,
                          MulAlgo);
void inverseBatchPortable(const NttPlan&, size_t il, DConstSpan, DSpan, DSpan,
                          MulAlgo);

void forwardBatchAvx2(const NttPlan&, size_t il, DConstSpan, DSpan, DSpan,
                      MulAlgo);
void inverseBatchAvx2(const NttPlan&, size_t il, DConstSpan, DSpan, DSpan,
                      MulAlgo);

void forwardBatchAvx512(const NttPlan&, size_t il, DConstSpan, DSpan, DSpan,
                        MulAlgo);
void inverseBatchAvx512(const NttPlan&, size_t il, DConstSpan, DSpan, DSpan,
                        MulAlgo);

void forwardBatchAvx512Ifma(const NttPlan&, size_t il, DConstSpan, DSpan,
                            DSpan, MulAlgo);
void inverseBatchAvx512Ifma(const NttPlan&, size_t il, DConstSpan, DSpan,
                            DSpan, MulAlgo);

void forwardBatchMqx(bool pisa, const NttPlan&, size_t il, DConstSpan, DSpan,
                     DSpan, MulAlgo);
void inverseBatchMqx(bool pisa, const NttPlan&, size_t il, DConstSpan, DSpan,
                     DSpan, MulAlgo);

} // namespace backends
} // namespace ntt
} // namespace mqx
