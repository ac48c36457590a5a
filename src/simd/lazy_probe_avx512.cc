/**
 * @file
 * simd::lazyProbeAvx512 (compiled with AVX-512 flags).
 */
#include "simd/isa_avx512.h"

#define MQX_LAZY_PROBE_ISA Avx512Isa
#define MQX_LAZY_PROBE lazyProbeAvx512
#include "simd/lazy_probe.inc"
