/**
 * @file
 * MQX instantiations of the merged negacyclic kernels, in Table-2
 * emulation and PISA proxy modes. They model the full MQX feature set
 * only: the Fig. 6 ablation variants stay on the cyclic kernels.
 */
#include "ntt/negacyclic_backends.h"

#include "mqxisa/isa_mqx.h"
#include "ntt/pease_impl.h"

namespace mqx {
namespace ntt {
namespace backends {

namespace {

using mqxisa::kMqxFull;
using mqxisa::MqxIsa;
using mqxisa::MqxMode;
using PisaIsa = MqxIsa<MqxMode::Pisa, kMqxFull>;
using EmulateIsa = MqxIsa<MqxMode::Emulate, kMqxFull>;

} // namespace

void
negacyclicForwardMqx(bool pisa, const NegacyclicTables& tables,
                     DConstSpan in, DSpan out, DSpan scratch)
{
    if (pisa)
        negacyclicForwardImpl<PisaIsa>(tables, in, out, scratch);
    else
        negacyclicForwardImpl<EmulateIsa>(tables, in, out, scratch);
}

void
negacyclicInverseMqx(bool pisa, const NegacyclicTables& tables,
                     DConstSpan in, DSpan out, DSpan scratch)
{
    if (pisa)
        negacyclicInverseImpl<PisaIsa>(tables, in, out, scratch);
    else
        negacyclicInverseImpl<EmulateIsa>(tables, in, out, scratch);
}

void
negacyclicForwardBatchMqx(bool pisa, const NegacyclicTables& tables,
                          size_t il, DConstSpan in, DSpan out, DSpan scratch)
{
    if (pisa)
        negacyclicForwardBatchImpl<PisaIsa>(tables, il, in, out, scratch);
    else
        negacyclicForwardBatchImpl<EmulateIsa>(tables, il, in, out, scratch);
}

void
negacyclicInverseBatchMqx(bool pisa, const NegacyclicTables& tables,
                          size_t il, DConstSpan in, DSpan out, DSpan scratch)
{
    if (pisa)
        negacyclicInverseBatchImpl<PisaIsa>(tables, il, in, out, scratch);
    else
        negacyclicInverseBatchImpl<EmulateIsa>(tables, il, in, out, scratch);
}

} // namespace backends
} // namespace ntt
} // namespace mqx
