/**
 * @file
 * AVX-512 BLAS kernels (compiled with AVX-512 flags): the tier body on
 * the emulated 64x64 multiply. Runs on every AVX-512 host;
 * blas_dispatch.cc prefers the IFMA build (blas_avx512_ifma.cc) where
 * the CPU has it.
 */
#include "simd/isa_avx512.h"

#define MQX_BLAS_TIER_ISA simd::Avx512Isa
#define MQX_BLAS_TIER(name) name##Avx512
#include "blas/blas_tier.inc"
