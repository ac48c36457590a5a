/** Fixture emulated AVX-512 BLAS TU: the tier body, Avx512 names. */
#define MQX_BLAS_TIER_ISA simd::Avx512Isa
#define MQX_BLAS_TIER(name) name##Avx512
#include "blas/blas_tier.inc"
