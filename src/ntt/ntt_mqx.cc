/**
 * @file
 * MQX instantiations of the Pease kernel body: every Fig. 6 feature
 * variant, in both Table-2 emulation and PISA proxy modes, in every
 * PeaseShape (the Shoup-lazy path exercises the same adc/sbb/mulWide
 * policy ops as Barrett, so the ablation stays apples-to-apples). The
 * batch kernels serve the full feature set only.
 */
#include "ntt/ntt_backends.h"

#include "mqxisa/isa_mqx.h"
#include "ntt/pease_impl.h"

namespace mqx {
namespace ntt {
namespace backends {

namespace {

using mqxisa::kMqxCarryOnly;
using mqxisa::kMqxFull;
using mqxisa::kMqxMulhi;
using mqxisa::kMqxMulOnly;
using mqxisa::kMqxPredicated;
using mqxisa::MqxIsa;
using mqxisa::MqxMode;

/** Run @p f with the MQX ISA policy for (pisa, variant) as its type. */
template <class F>
void
withVariant(bool pisa, MqxVariant variant, F&& f)
{
    auto run = [&]<MqxMode Mode>() {
        switch (variant) {
          case MqxVariant::MulOnly:
            f(MqxIsa<Mode, kMqxMulOnly>{});
            return;
          case MqxVariant::CarryOnly:
            f(MqxIsa<Mode, kMqxCarryOnly>{});
            return;
          case MqxVariant::Full:
            f(MqxIsa<Mode, kMqxFull>{});
            return;
          case MqxVariant::MulhiCarry:
            f(MqxIsa<Mode, kMqxMulhi>{});
            return;
          case MqxVariant::FullPredicated:
            f(MqxIsa<Mode, kMqxPredicated>{});
            return;
        }
    };
    if (pisa)
        run.template operator()<MqxMode::Pisa>();
    else
        run.template operator()<MqxMode::Emulate>();
}

} // namespace

void
forwardMqxImpl(bool pisa, MqxVariant variant, const NttPlan& plan,
               const PeaseTwiddles& tw, DConstSpan in, DSpan out,
               DSpan scratch, PeaseShape shape)
{
    withVariant(pisa, variant, [&]<class Isa>(Isa) {
        forwardImpl<Isa>(plan, tw, in, out, scratch, shape);
    });
}

void
inverseMqxImpl(bool pisa, MqxVariant variant, const NttPlan& plan,
               const PeaseTwiddles& tw, DConstSpan in, DSpan out,
               DSpan scratch, PeaseShape shape)
{
    withVariant(pisa, variant, [&]<class Isa>(Isa) {
        inverseImpl<Isa>(plan, tw, in, out, scratch, shape);
    });
}

void
forwardBatchMqxImpl(bool pisa, const NttPlan& plan, const PeaseTwiddles& tw,
                    size_t il, DConstSpan in, DSpan out, DSpan scratch)
{
    if (pisa)
        forwardBatchImpl<MqxIsa<MqxMode::Pisa, kMqxFull>>(plan, tw, il, in,
                                                          out, scratch);
    else
        forwardBatchImpl<MqxIsa<MqxMode::Emulate, kMqxFull>>(plan, tw, il, in,
                                                             out, scratch);
}

void
inverseBatchMqxImpl(bool pisa, const NttPlan& plan, const PeaseTwiddles& tw,
                    size_t il, DConstSpan in, DSpan out, DSpan scratch)
{
    if (pisa)
        inverseBatchImpl<MqxIsa<MqxMode::Pisa, kMqxFull>>(plan, tw, il, in,
                                                          out, scratch);
    else
        inverseBatchImpl<MqxIsa<MqxMode::Emulate, kMqxFull>>(plan, tw, il, in,
                                                             out, scratch);
}

} // namespace backends
} // namespace ntt
} // namespace mqx
