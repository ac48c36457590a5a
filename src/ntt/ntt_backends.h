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

} // namespace backends
} // namespace ntt
} // namespace mqx
