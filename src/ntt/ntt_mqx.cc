/**
 * @file
 * MQX instantiations of the Pease NTT: every Fig. 6 feature variant, in
 * both Table-2 emulation and PISA proxy modes, with both reduction
 * strategies (the Shoup-lazy path exercises the same adc/sbb/mulWide
 * policy ops, so the ablation stays apples-to-apples).
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

template <class Isa>
void
forwardWithIsa(const NttPlan& plan, DConstSpan in, DSpan out, DSpan scratch,
               MulAlgo algo, Reduction red, StageFusion fusion)
{
    if (red == Reduction::ShoupLazy) {
        if (fusion == StageFusion::Radix4)
            peaseForward4LazyImpl<Isa>(plan, in, out, scratch, algo);
        else
            peaseForwardLazyImpl<Isa>(plan, in, out, scratch, algo);
    } else {
        peaseForwardImpl<Isa>(plan, in, out, scratch, algo);
    }
}

template <class Isa>
void
inverseWithIsa(const NttPlan& plan, DConstSpan in, DSpan out, DSpan scratch,
               MulAlgo algo, Reduction red, StageFusion fusion)
{
    if (red == Reduction::ShoupLazy) {
        if (fusion == StageFusion::Radix4)
            peaseInverse4LazyImpl<Isa>(plan, in, out, scratch, algo);
        else
            peaseInverseLazyImpl<Isa>(plan, in, out, scratch, algo);
    } else {
        peaseInverseImpl<Isa>(plan, in, out, scratch, algo);
    }
}

template <MqxMode Mode>
void
forwardWithVariant(const NttPlan& plan, MqxVariant variant, DConstSpan in,
                   DSpan out, DSpan scratch, MulAlgo algo, Reduction red,
                   StageFusion fusion)
{
    switch (variant) {
      case MqxVariant::MulOnly:
        forwardWithIsa<MqxIsa<Mode, kMqxMulOnly>>(plan, in, out, scratch,
                                                  algo, red, fusion);
        break;
      case MqxVariant::CarryOnly:
        forwardWithIsa<MqxIsa<Mode, kMqxCarryOnly>>(plan, in, out, scratch,
                                                    algo, red, fusion);
        break;
      case MqxVariant::Full:
        forwardWithIsa<MqxIsa<Mode, kMqxFull>>(plan, in, out, scratch, algo,
                                               red, fusion);
        break;
      case MqxVariant::MulhiCarry:
        forwardWithIsa<MqxIsa<Mode, kMqxMulhi>>(plan, in, out, scratch, algo,
                                                red, fusion);
        break;
      case MqxVariant::FullPredicated:
        forwardWithIsa<MqxIsa<Mode, kMqxPredicated>>(plan, in, out, scratch,
                                                     algo, red, fusion);
        break;
    }
}

template <MqxMode Mode>
void
inverseWithVariant(const NttPlan& plan, MqxVariant variant, DConstSpan in,
                   DSpan out, DSpan scratch, MulAlgo algo, Reduction red,
                   StageFusion fusion)
{
    switch (variant) {
      case MqxVariant::MulOnly:
        inverseWithIsa<MqxIsa<Mode, kMqxMulOnly>>(plan, in, out, scratch,
                                                  algo, red, fusion);
        break;
      case MqxVariant::CarryOnly:
        inverseWithIsa<MqxIsa<Mode, kMqxCarryOnly>>(plan, in, out, scratch,
                                                    algo, red, fusion);
        break;
      case MqxVariant::Full:
        inverseWithIsa<MqxIsa<Mode, kMqxFull>>(plan, in, out, scratch, algo,
                                               red, fusion);
        break;
      case MqxVariant::MulhiCarry:
        inverseWithIsa<MqxIsa<Mode, kMqxMulhi>>(plan, in, out, scratch, algo,
                                                red, fusion);
        break;
      case MqxVariant::FullPredicated:
        inverseWithIsa<MqxIsa<Mode, kMqxPredicated>>(plan, in, out, scratch,
                                                     algo, red, fusion);
        break;
    }
}

} // namespace

void
forwardMqxImpl(const NttPlan& plan, MqxVariant variant, bool pisa,
               DConstSpan in, DSpan out, DSpan scratch, MulAlgo algo,
               Reduction red, StageFusion fusion)
{
    if (pisa)
        forwardWithVariant<MqxMode::Pisa>(plan, variant, in, out, scratch,
                                          algo, red, fusion);
    else
        forwardWithVariant<MqxMode::Emulate>(plan, variant, in, out, scratch,
                                             algo, red, fusion);
}

void
inverseMqxImpl(const NttPlan& plan, MqxVariant variant, bool pisa,
               DConstSpan in, DSpan out, DSpan scratch, MulAlgo algo,
               Reduction red, StageFusion fusion)
{
    if (pisa)
        inverseWithVariant<MqxMode::Pisa>(plan, variant, in, out, scratch,
                                          algo, red, fusion);
    else
        inverseWithVariant<MqxMode::Emulate>(plan, variant, in, out, scratch,
                                             algo, red, fusion);
}

} // namespace backends
} // namespace ntt
} // namespace mqx
