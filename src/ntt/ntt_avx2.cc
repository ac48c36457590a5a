/**
 * @file
 * AVX2 instantiation of the Pease NTT (compiled with -mavx2).
 */
#include "ntt/ntt_backends.h"

#include "ntt/pease_impl.h"
#include "simd/isa_avx2.h"

namespace mqx {
namespace ntt {
namespace backends {

void
forwardAvx2(const NttPlan& plan, DConstSpan in, DSpan out, DSpan scratch,
            MulAlgo algo, Reduction red, StageFusion fusion)
{
    if (red == Reduction::ShoupLazy) {
        if (fusion == StageFusion::Radix4)
            peaseForward4LazyImpl<simd::Avx2Isa>(plan, in, out, scratch,
                                                 algo);
        else
            peaseForwardLazyImpl<simd::Avx2Isa>(plan, in, out, scratch,
                                                algo);
    } else {
        peaseForwardImpl<simd::Avx2Isa>(plan, in, out, scratch, algo);
    }
}

void
inverseAvx2(const NttPlan& plan, DConstSpan in, DSpan out, DSpan scratch,
            MulAlgo algo, Reduction red, StageFusion fusion)
{
    if (red == Reduction::ShoupLazy) {
        if (fusion == StageFusion::Radix4)
            peaseInverse4LazyImpl<simd::Avx2Isa>(plan, in, out, scratch,
                                                 algo);
        else
            peaseInverseLazyImpl<simd::Avx2Isa>(plan, in, out, scratch,
                                                algo);
    } else {
        peaseInverseImpl<simd::Avx2Isa>(plan, in, out, scratch, algo);
    }
}

} // namespace backends
} // namespace ntt
} // namespace mqx
