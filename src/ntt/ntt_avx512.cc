/**
 * @file
 * AVX-512 instantiation of the Pease NTT (compiled with AVX-512 flags):
 * the tier body on the emulated 64x64 multiply. Runs on every AVX-512
 * host; ntt.cc prefers the IFMA build (ntt_avx512_ifma.cc) where the
 * CPU has it.
 */
#include "simd/isa_avx512.h"

#define MQX_AVX512_TIER_ISA simd::Avx512Isa
#define MQX_AVX512_TIER(name) name##Avx512
#include "ntt/ntt_avx512_tier.inc"
