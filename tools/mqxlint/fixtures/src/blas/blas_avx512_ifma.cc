/** Fixture IFMA AVX-512 BLAS TU: the tier body, Avx512Ifma names. */
#define MQX_BLAS_TIER_ISA simd::Avx512IfmaIsa
#define MQX_BLAS_TIER(name) name##Avx512Ifma
#include "blas/blas_tier.inc"
