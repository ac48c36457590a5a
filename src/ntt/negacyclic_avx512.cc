/**
 * @file
 * AVX-512 instantiation of the merged negacyclic kernels on the emulated
 * 64x64 multiply (compiled with AVX-512 flags).
 */
#include "simd/isa_avx512.h"

#define MQX_NEGACYCLIC_TIER_ISA simd::Avx512Isa
#define MQX_NEGACYCLIC_TIER(name) name##Avx512
#include "ntt/negacyclic_tier.inc"
