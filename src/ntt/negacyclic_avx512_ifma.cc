/**
 * @file
 * AVX-512 instantiation of the merged negacyclic kernels on IFMA 52-bit
 * limbs (compiled with the AVX-512 flags plus -mavx512ifma); ntt.cc
 * dispatches Backend::Avx512 here when CPUID reports AVX512_IFMA.
 */
#include "simd/isa_avx512_ifma.h"

#define MQX_NEGACYCLIC_TIER_ISA simd::Avx512IfmaIsa
#define MQX_NEGACYCLIC_TIER(name) name##Avx512Ifma
#include "ntt/negacyclic_tier.inc"
