/**
 * @file
 * The lazy add/sub helpers of simd/dw_kernels.h one op at a time, in
 * either form (adc/sbb carry chain or headroom), per vector ISA: the
 * edge tests compare the two forms word for word, and mca_report times
 * them. Each entry point lives in its own small TU (lazy_probe_*.cc)
 * compiled with its ISA's flags, apart from the NTT and BLAS tiers, so
 * that this diagnostic code does not move their hot loops. Internal;
 * not part of the public API.
 */
#pragma once

#include "core/residue_span.h"
#include "mod/modulus.h"

namespace mqx {
namespace simd {

/** The lazy helper a lazyProbe* entry point runs. */
enum class LazyOp
{
    AddLazy,    ///< c = addModLazyV(a, b); a, b in [0, 2q)
    SubLazyRaw, ///< c = subModLazyRawV(a, b)
    SubLazy,    ///< c = subModLazyV(a, b)
    CondSub,    ///< c = condSubDwV(a, b) per lane; a, b < 2^127
    Butterfly,  ///< c, d = the lazy forward butterfly of (a, b), w = q - 1
};

// c (and d, for Butterfly only) = op(a, b) in the carry-chain form when
// carry_chain, else the headroom form. Lengths match and are a multiple
// of the ISA's lane count. The Avx2/Avx512/Avx512Ifma entry points exist
// when that tier is compiled in (MQX_BUILD_AVX2, MQX_BUILD_AVX512,
// MQX_BUILD_AVX512_IFMA).
void lazyProbePortable(LazyOp, bool carry_chain, const Modulus&, DConstSpan,
                       DConstSpan, DSpan, DSpan);
void lazyProbeAvx2(LazyOp, bool carry_chain, const Modulus&, DConstSpan,
                   DConstSpan, DSpan, DSpan);
void lazyProbeAvx512(LazyOp, bool carry_chain, const Modulus&, DConstSpan,
                     DConstSpan, DSpan, DSpan);
void lazyProbeAvx512Ifma(LazyOp, bool carry_chain, const Modulus&,
                         DConstSpan, DConstSpan, DSpan, DSpan);

} // namespace simd
} // namespace mqx
