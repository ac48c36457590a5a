/**
 * @file
 * AVX2 instantiation of the merged negacyclic kernels (compiled with
 * -mavx2).
 */
#include "simd/isa_avx2.h"

#define MQX_NEGACYCLIC_TIER_ISA simd::Avx2Isa
#define MQX_NEGACYCLIC_TIER(name) name##Avx2
#include "ntt/negacyclic_tier.inc"
