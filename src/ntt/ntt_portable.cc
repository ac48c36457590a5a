/**
 * @file
 * Portable (plain C++) instantiation of the Pease kernel body;
 * correctness fallback for hosts without AVX.
 */
#include "simd/isa_portable.h"

#define MQX_PEASE_TIER_ISA simd::PortableIsa
#define MQX_PEASE_TIER(name) name##Portable
#include "ntt/pease_tier.inc"
