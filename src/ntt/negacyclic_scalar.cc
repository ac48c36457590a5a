/**
 * @file
 * Scalar instantiation of the merged negacyclic kernels: the
 * native-128-bit scalar arithmetic of ntt_scalar.cc's Shoup-lazy path.
 */
#include "ntt/negacyclic_backends.h"

#include "ntt/pease_impl.h"

namespace mqx {
namespace ntt {
namespace backends {

void
negacyclicForwardScalar(const NegacyclicTables& tables, DConstSpan in,
                        DSpan out, DSpan scratch)
{
    negacyclicForwardScalarImpl(tables, in, out, scratch);
}

void
negacyclicInverseScalar(const NegacyclicTables& tables, DConstSpan in,
                        DSpan out, DSpan scratch)
{
    negacyclicInverseScalarImpl(tables, in, out, scratch);
}

void
negacyclicForwardBatchScalar(const NegacyclicTables& tables, size_t il,
                             DConstSpan in, DSpan out, DSpan scratch)
{
    negacyclicForwardBatchScalarImpl(tables, il, in, out, scratch);
}

void
negacyclicInverseBatchScalar(const NegacyclicTables& tables, size_t il,
                             DConstSpan in, DSpan out, DSpan scratch)
{
    negacyclicInverseBatchScalarImpl(tables, il, in, out, scratch);
}

} // namespace backends
} // namespace ntt
} // namespace mqx
