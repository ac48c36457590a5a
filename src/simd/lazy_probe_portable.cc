/**
 * @file
 * simd::lazyProbePortable.
 */
#include "simd/isa_portable.h"

#define MQX_LAZY_PROBE_ISA PortableIsa
#define MQX_LAZY_PROBE lazyProbePortable
#include "simd/lazy_probe.inc"
