/**
 * @file
 * AVX-512 instantiation of the Pease kernel body (compiled with AVX-512
 * flags): the tier body on the emulated 64x64 multiply. Runs on every
 * AVX-512 host; ntt.cc prefers the IFMA build (ntt_avx512_ifma.cc)
 * where the CPU has it.
 */
#include "simd/isa_avx512.h"

#define MQX_PEASE_TIER_ISA simd::Avx512Isa
#define MQX_PEASE_TIER(name) name##Avx512
#include "ntt/pease_tier.inc"

namespace mqx {
namespace ntt {
namespace backends {

void
vmulShoupLazyAvx512(const Modulus& m, DConstSpan a, DConstSpan t,
                    DConstSpan tq, DSpan c)
{
    vmulShoupLazyImpl<simd::Avx512Isa>(m, a, t, tq, c);
}

} // namespace backends
} // namespace ntt
} // namespace mqx
