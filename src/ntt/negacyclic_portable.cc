/**
 * @file
 * Portable (plain C++) instantiation of the merged negacyclic kernels.
 */
#include "simd/isa_portable.h"

#define MQX_NEGACYCLIC_TIER_ISA simd::PortableIsa
#define MQX_NEGACYCLIC_TIER(name) name##Portable
#include "ntt/negacyclic_tier.inc"
