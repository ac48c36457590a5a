/**
 * @file
 * Portable (plain C++) instantiation of the Pease NTT; correctness
 * fallback for hosts without AVX.
 */
#include "ntt/ntt_backends.h"

#include "ntt/pease_impl.h"
#include "simd/isa_portable.h"

namespace mqx {
namespace ntt {
namespace backends {

void
forwardPortable(const NttPlan& plan, DConstSpan in, DSpan out, DSpan scratch,
                MulAlgo algo, Reduction red, StageFusion fusion)
{
    if (red == Reduction::ShoupLazy) {
        if (fusion == StageFusion::Radix4)
            peaseForward4LazyImpl<simd::PortableIsa>(plan, in, out, scratch,
                                                     algo);
        else
            peaseForwardLazyImpl<simd::PortableIsa>(plan, in, out, scratch,
                                                    algo);
    } else {
        peaseForwardImpl<simd::PortableIsa>(plan, in, out, scratch, algo);
    }
}

void
inversePortable(const NttPlan& plan, DConstSpan in, DSpan out, DSpan scratch,
                MulAlgo algo, Reduction red, StageFusion fusion)
{
    if (red == Reduction::ShoupLazy) {
        if (fusion == StageFusion::Radix4)
            peaseInverse4LazyImpl<simd::PortableIsa>(plan, in, out, scratch,
                                                     algo);
        else
            peaseInverseLazyImpl<simd::PortableIsa>(plan, in, out, scratch,
                                                    algo);
    } else {
        peaseInverseImpl<simd::PortableIsa>(plan, in, out, scratch, algo);
    }
}

} // namespace backends
} // namespace ntt
} // namespace mqx
