/**
 * @file
 * AVX2 instantiation of the BLAS tier body (compiled with -mavx2).
 */
#include "simd/isa_avx2.h"

#define MQX_BLAS_TIER_ISA simd::Avx2Isa
#define MQX_BLAS_TIER(name) name##Avx2
#include "blas/blas_tier.inc"
