/**
 * @file
 * AVX-512 instantiation of the Pease kernel body on IFMA (compiled with
 * the AVX-512 flags plus -mavx512ifma): the same tier body as
 * ntt_avx512.cc with every Shoup and Barrett multiply on 52-bit limbs.
 * ntt.cc dispatches Backend::Avx512 here when CPUID reports
 * AVX512_IFMA.
 */
#include "simd/isa_avx512_ifma.h"

#define MQX_PEASE_TIER_ISA simd::Avx512IfmaIsa
#define MQX_PEASE_TIER(name) name##Avx512Ifma
#include "ntt/pease_tier.inc"

namespace mqx {
namespace ntt {
namespace backends {

void
vmulShoupLazyAvx512Ifma(const Modulus& m, DConstSpan a, DConstSpan t,
                        DConstSpan tq, DSpan c)
{
    vmulShoupLazyImpl<simd::Avx512IfmaIsa>(m, a, t, tq, c);
}

} // namespace backends
} // namespace ntt
} // namespace mqx
