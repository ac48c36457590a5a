/**
 * @file
 * AVX2 instantiation of the Pease kernel body (compiled with -mavx2).
 */
#include "simd/isa_avx2.h"

#define MQX_PEASE_TIER_ISA simd::Avx2Isa
#define MQX_PEASE_TIER(name) name##Avx2
#include "ntt/pease_tier.inc"
