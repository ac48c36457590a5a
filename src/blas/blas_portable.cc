/**
 * @file
 * Portable (plain C++ model of the SIMD dataflow) instantiation of the
 * BLAS tier body.
 */
#include "simd/isa_portable.h"

#define MQX_BLAS_TIER_ISA simd::PortableIsa
#define MQX_BLAS_TIER(name) name##Portable
#include "blas/blas_tier.inc"
