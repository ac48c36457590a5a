/**
 * @file
 * AVX-512 BLAS kernels on IFMA (compiled with the AVX-512 flags plus
 * -mavx512ifma): the same tier body as blas_avx512.cc with every
 * Barrett multiply on 52-bit limbs. blas_dispatch.cc routes
 * Backend::Avx512 here when mqx::avx512Ifma().
 */
#include "simd/isa_avx512_ifma.h"

#define MQX_BLAS_TIER_ISA simd::Avx512IfmaIsa
#define MQX_BLAS_TIER(name) name##Avx512Ifma
#include "blas/blas_tier.inc"
