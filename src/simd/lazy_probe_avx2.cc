/**
 * @file
 * simd::lazyProbeAvx2 (compiled with -mavx2).
 */
#include "simd/isa_avx2.h"

#define MQX_LAZY_PROBE_ISA Avx2Isa
#define MQX_LAZY_PROBE lazyProbeAvx2
#include "simd/lazy_probe.inc"
