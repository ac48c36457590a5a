/**
 * @file
 * AVX-512 instantiation of the Pease NTT on IFMA (compiled with the
 * AVX-512 flags plus -mavx512ifma): the same tier body as
 * ntt_avx512.cc with every Shoup and Barrett multiply on 52-bit limbs.
 * ntt.cc dispatches Backend::Avx512 here when CPUID reports
 * AVX512_IFMA.
 */
#include "simd/isa_avx512_ifma.h"

#define MQX_AVX512_TIER_ISA simd::Avx512IfmaIsa
#define MQX_AVX512_TIER(name) name##Avx512Ifma
#include "ntt/ntt_avx512_tier.inc"
