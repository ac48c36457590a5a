/**
 * @file
 * Kernel tracing via the recording ISA policy.
 */
#include "mca/kernel_traces.h"

#include "ntt/pease_impl.h"
#include "simd/dw_kernels.h"

namespace mqx {
namespace mca {

TraceSink&
TraceSink::instance()
{
    static TraceSink sink;
    return sink;
}

std::string
kernelName(Kernel k)
{
    switch (k) {
      case Kernel::AddMod:
        return "addmod128";
      case Kernel::SubMod:
        return "submod128";
      case Kernel::MulMod:
        return "mulmod128";
      case Kernel::Butterfly:
        return "ntt-butterfly";
      case Kernel::ShoupMul:
        return "shoupmul128";
      case Kernel::LazyButterfly:
        return "lazy-butterfly";
      case Kernel::LazyButterflyCarry:
        return "lazy-butterfly-carry";
      case Kernel::ForwardButterfly:
        return "fwd-butterfly";
    }
    return "unknown";
}

std::string
flavorName(TraceFlavor f)
{
    switch (f) {
      case TraceFlavor::Avx512:
        return "AVX-512";
      case TraceFlavor::MqxMulOnly:
        return "+M";
      case TraceFlavor::MqxCarryOnly:
        return "+C";
      case TraceFlavor::MqxFull:
        return "+M,C";
      case TraceFlavor::MqxMulhiCarry:
        return "+Mh,C";
      case TraceFlavor::MqxPredicated:
        return "+M,C,P";
      case TraceFlavor::Avx512Ifma:
        return "AVX-512 IFMA";
    }
    return "unknown";
}

namespace {

/** The lazy forward butterfly (u, v) of pease_impl.h in one form. */
template <class Isa, bool kCarry>
void
lazyButterfly(const simd::ModCtx<Isa>& ctx, const simd::DV<Isa>& a,
              const simd::DV<Isa>& b, const simd::ShoupW<Isa>& w)
{
    simd::addModLazyV<Isa, kCarry>(ctx, a, b);
    simd::mulModShoupV<Isa, kCarry>(
        ctx, simd::subModLazyRawV<Isa, kCarry>(ctx, a, b), w);
}

template <TraceFeatures F>
std::vector<TracedInstr>
traceWith(Kernel kernel, const Modulus& m)
{
    using Isa = TraceIsa<F>;
    simd::ModCtx<Isa> ctx = simd::makeModCtx<Isa>(m);
    simd::DV<Isa> a{}, b{}, w{};
    // Per-call constants: a fixed Shoup multiplicand is prepared once
    // per twiddle run / table row, like the ModCtx broadcasts.
    const simd::ShoupW<Isa> ws = simd::makeShoupW<Isa>(w, w);
    TraceSink::instance().clear(); // ctx setup is not part of the body
    switch (kernel) {
      case Kernel::AddMod:
        simd::addModV<Isa>(ctx, a, b);
        break;
      case Kernel::SubMod:
        simd::subModV<Isa>(ctx, a, b);
        break;
      case Kernel::MulMod:
        simd::mulModV<Isa>(ctx, a, b);
        break;
      case Kernel::Butterfly: {
        auto u = simd::addModV<Isa>(ctx, a, b);
        (void)u;
        auto d = simd::subModV<Isa>(ctx, a, b);
        simd::mulModV<Isa>(ctx, d, w);
        break;
      }
      case Kernel::ShoupMul:
        simd::mulModShoupV<Isa>(ctx, a, ws);
        break;
      case Kernel::LazyButterfly:
        lazyButterfly<Isa, Isa::kCarryChain>(ctx, a, b, ws);
        break;
      case Kernel::LazyButterflyCarry:
        lazyButterfly<Isa, true>(ctx, a, b, ws);
        break;
      case Kernel::ForwardButterfly: {
        simd::DV<Isa> u, v;
        ntt::detail::forwardButterflyV<Isa>(
            ctx, a, b, simd::makeShoupW<Isa>(w, w), false, u, v);
        break;
      }
    }
    return TraceSink::instance().take();
}

} // namespace

std::vector<TracedInstr>
traceKernel(Kernel kernel, TraceFlavor flavor, const Modulus& m)
{
    switch (flavor) {
      case TraceFlavor::Avx512:
        return traceWith<kTraceAvx512>(kernel, m);
      case TraceFlavor::MqxMulOnly:
        return traceWith<kTraceMqxMulOnly>(kernel, m);
      case TraceFlavor::MqxCarryOnly:
        return traceWith<kTraceMqxCarryOnly>(kernel, m);
      case TraceFlavor::MqxFull:
        return traceWith<kTraceMqxFull>(kernel, m);
      case TraceFlavor::MqxMulhiCarry:
        return traceWith<kTraceMqxMulhi>(kernel, m);
      case TraceFlavor::MqxPredicated:
        return traceWith<kTraceMqxPred>(kernel, m);
      case TraceFlavor::Avx512Ifma:
        return traceWith<kTraceAvx512Ifma>(kernel, m);
    }
    throw InvalidArgument("traceKernel: unknown flavor");
}

} // namespace mca
} // namespace mqx
