/**
 * @file
 * The Fig. 6 ablation: every MQX feature variant of the Pease kernel
 * body, in Table-2 emulation or PISA proxy mode (pisa), in every
 * PeaseShape (the Shoup-lazy path exercises the same adc/sbb/mulWide
 * policy ops as Barrett, so the ablation stays apples-to-apples). The
 * full feature set (+M,C) runs on the MQX tier entry points
 * (ntt_mqx.cc). A TU of its own: sharing one with the two tiers runs
 * GCC -O3 into its inline-unit-growth limit, which leaves the variants'
 * mulWide, PairTwiddles and Barrett helpers out of line and slows
 * bench_fig6_sensitivity.
 */
#include "ntt/ntt_backends.h"

#include "mqxisa/isa_mqx.h"
#include "ntt/pease_impl.h"

namespace mqx {
namespace ntt {
namespace detail {

namespace {

using mqxisa::kMqxCarryOnly;
using mqxisa::kMqxMulhi;
using mqxisa::kMqxMulOnly;
using mqxisa::kMqxPredicated;
using mqxisa::MqxIsa;
using mqxisa::MqxMode;

/**
 * Run @p f with the MQX ISA policy for (pisa, variant) as its type. The
 * callers run MqxVariant::Full on the tier entry points instead.
 */
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
    if (variant == MqxVariant::Full)
        return (pisa ? backends::forwardMqxPisa
                     : backends::forwardMqxEmulate)(plan, tw, in, out,
                                                    scratch, shape);
    withVariant(pisa, variant, [&]<class Isa>(Isa) {
        forwardImpl<Isa>(plan, tw, in, out, scratch, shape);
    });
}

void
inverseMqxImpl(bool pisa, MqxVariant variant, const NttPlan& plan,
               const PeaseTwiddles& tw, DConstSpan in, DSpan out,
               DSpan scratch, PeaseShape shape)
{
    if (variant == MqxVariant::Full)
        return (pisa ? backends::inverseMqxPisa
                     : backends::inverseMqxEmulate)(plan, tw, in, out,
                                                    scratch, shape);
    withVariant(pisa, variant, [&]<class Isa>(Isa) {
        inverseImpl<Isa>(plan, tw, in, out, scratch, shape);
    });
}

} // namespace detail
} // namespace ntt
} // namespace mqx
