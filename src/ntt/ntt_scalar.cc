/**
 * @file
 * Scalar instantiation of the Pease kernel body (paper Section 3.1
 * tier): the scalar cores of pease_impl.h on the native-128-bit scalar
 * modular arithmetic — "used for benchmarking, as it allows the
 * compiler to exploit specialized assembly instructions such as add
 * with carry" — in the same constant-geometry dataflow as the SIMD
 * tiers.
 */
#include "ntt/ntt_backends.h"

#include "ntt/pease_impl.h"

namespace mqx {
namespace ntt {
namespace backends {

void
forwardScalar(const NttPlan& plan, const PeaseTwiddles& tw, DConstSpan in,
              DSpan out, DSpan scratch, PeaseShape shape)
{
    detail::validateNttArgs(plan, in, out, scratch);
    detail::forwardScalarCore<1>(plan, tw, 1, in, out, scratch, shape);
}

void
inverseScalar(const NttPlan& plan, const PeaseTwiddles& tw, DConstSpan in,
              DSpan out, DSpan scratch, PeaseShape shape)
{
    detail::validateNttArgs(plan, in, out, scratch);
    detail::inverseScalarCore<1>(plan, tw, 1, in, out, scratch, shape);
}

void
forwardBatchScalar(const NttPlan& plan, const PeaseTwiddles& tw, size_t il,
                   DConstSpan in, DSpan out, DSpan scratch)
{
    detail::validateBatchNttArgs(plan, il, in, out, scratch);
    detail::forwardScalarCore<0>(plan, tw, il, in, out, scratch, {});
}

void
inverseBatchScalar(const NttPlan& plan, const PeaseTwiddles& tw, size_t il,
                   DConstSpan in, DSpan out, DSpan scratch)
{
    detail::validateBatchNttArgs(plan, il, in, out, scratch);
    detail::inverseScalarCore<0>(plan, tw, il, in, out, scratch, {});
}

} // namespace backends
} // namespace ntt
} // namespace mqx
