/**
 * @file
 * simd::lazyProbeAvx512Ifma (compiled with AVX-512 flags plus -mavx512ifma).
 */
#include "simd/isa_avx512_ifma.h"

#define MQX_LAZY_PROBE_ISA Avx512IfmaIsa
#define MQX_LAZY_PROBE lazyProbeAvx512Ifma
#include "simd/lazy_probe.inc"
