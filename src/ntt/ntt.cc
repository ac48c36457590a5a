/**
 * @file
 * Public NTT dispatch and the convenience Engine.
 */
#include "ntt/ntt.h"

#include <algorithm>

#include "core/batch_layout.h"
#include "core/config.h"
#include "ntt/negacyclic.h"
#include "ntt/ntt_backends.h"
#include "ntt/pease_impl.h"
#include "telemetry/telemetry.h"

namespace mqx {
namespace ntt {

namespace {

void
requireAvailable(Backend backend)
{
    if (!backendAvailable(backend)) {
        throw BackendUnavailable("NTT backend not available on this host: " +
                                 backendName(backend));
    }
}

/**
 * One tier's entry points into the Pease kernel body
 * (ntt/ntt_backends.h): every cyclic and merged negacyclic transform of
 * that backend goes through them.
 */
struct TierKernels
{
    decltype(&backends::forwardScalar) forward;
    decltype(&backends::inverseScalar) inverse;
    decltype(&backends::forwardBatchScalar) forwardBatch;
    decltype(&backends::inverseBatchScalar) inverseBatch;
};

const TierKernels&
tierKernels(Backend backend)
{
    requireAvailable(backend);
    static const TierKernels scalar{
        &backends::forwardScalar, &backends::inverseScalar,
        &backends::forwardBatchScalar, &backends::inverseBatchScalar};
    static const TierKernels portable{
        &backends::forwardPortable, &backends::inversePortable,
        &backends::forwardBatchPortable, &backends::inverseBatchPortable};
    switch (backend) {
      case Backend::Scalar:
        return scalar;
      case Backend::Portable:
        return portable;
#if MQX_BUILD_AVX2
      case Backend::Avx2: {
        static const TierKernels avx2{
            &backends::forwardAvx2, &backends::inverseAvx2,
            &backends::forwardBatchAvx2, &backends::inverseBatchAvx2};
        return avx2;
      }
#endif
#if MQX_BUILD_AVX512
      case Backend::Avx512: {
        // One tier body, IFMA multiplies where CPUID has them.
        static const TierKernels avx512{
            &backends::forwardAvx512, &backends::inverseAvx512,
            &backends::forwardBatchAvx512, &backends::inverseBatchAvx512};
#if MQX_BUILD_AVX512_IFMA
        static const TierKernels avx512_ifma{
            &backends::forwardAvx512Ifma, &backends::inverseAvx512Ifma,
            &backends::forwardBatchAvx512Ifma,
            &backends::inverseBatchAvx512Ifma};
        static const bool ifma = avx512Ifma();
        if (ifma)
            return avx512_ifma;
#endif
        return avx512;
      }
      case Backend::MqxEmulate: {
        static const TierKernels mqx_emulate{
            &backends::forwardMqxEmulate, &backends::inverseMqxEmulate,
            &backends::forwardBatchMqxEmulate,
            &backends::inverseBatchMqxEmulate};
        return mqx_emulate;
      }
      case Backend::MqxPisa: {
        static const TierKernels mqx_pisa{
            &backends::forwardMqxPisa, &backends::inverseMqxPisa,
            &backends::forwardBatchMqxPisa, &backends::inverseBatchMqxPisa};
        return mqx_pisa;
      }
#endif
      default:
        break;
    }
    throw BackendUnavailable("NTT backend not compiled in: " +
                             backendName(backend));
}

/** The shape a public transform runs: fusion resolved per (backend, n). */
detail::PeaseShape
shapeFor(Backend backend, size_t n, Reduction red, StageFusion fusion)
{
    return {red, resolveStageFusion(backend, n, fusion)};
}

} // namespace

StageFusion
resolveStageFusion(Backend backend, size_t n, StageFusion fusion)
{
    if (fusion != StageFusion::Auto)
        return fusion;
    // Radix4/radix2 fwd+inv on an Intel Xeon (AVX-512 IFMA), the median
    // of the per-run ratios over fourteen bench_fig5_ntt runs (the seven
    // BENCH_ntt.json merges and seven before them): Scalar 0.83-0.87 at
    // every n in 256..65536, so it fuses. Portable 1.00-1.06, so it does
    // not. AVX2 0.99-1.00, a tie; it fuses. AVX-512 0.95 at n = 256,
    // 1.01 at 1024 and 4096, 1.02 at 16384 and 0.95 at 65536 (and 0.97
    // at the perfbench size 32768 over nine runs of the benchmark cut to
    // that size), so it runs radix-2 for 1024 <= n < 16384 (16384 is
    // within 2%) and fuses outside that band. A single run swings a row
    // by about 4%. MQX is not in BENCH_ntt.json; an alternated fwd+inv
    // run of the PISA proxy on the same host put radix4/radix2 at 1.10
    // for n = 1024, 0.99-1.01 for 4096-16384 and 0.87 for 65536.
    switch (backend) {
      case Backend::Scalar:
      case Backend::Avx2:
        return StageFusion::Radix4;
      case Backend::Portable:
        return StageFusion::Radix2;
      case Backend::Avx512:
        return n >= 1024 && n < 16384 ? StageFusion::Radix2
                                      : StageFusion::Radix4;
      case Backend::MqxEmulate:
      case Backend::MqxPisa:
        break;
    }
    return n >= 65536 ? StageFusion::Radix4 : StageFusion::Radix2;
}

bool
fmaBatchKernelsWin(Backend backend)
{
    // One op = rns::detail::fmaChannel or fmaChannelBatched over 4
    // channels of 124 bits, 8 all-Coeff products, alternated in one
    // process on an Intel Xeon (AVX-512 IFMA, 4 vCPU); the median of
    // the per-pair per-channel / batched time ratios, and the pairs the
    // per-channel path won:
    //   n              1024          4096          32768
    //   Scalar         0.81 (20/20)  0.81 (12/12)  0.80 (6/6)
    //   AVX-512        0.89 (26/30)  0.83 (20/20)  0.67 (8/8)
    //   AVX2           1.13 (6/30)   1.10 (0/20)   1.08 (0/8)
    //   Portable       1.06 (5/20)   1.02 (3/12)   1.04 (3/6)
    //   MQX emulated   1.46 (0/20)   1.40 (0/12)   1.45 (0/6)
    // No backend changes side with n, so n does not enter. MqxPisa
    // computes no words to time and follows MQX emulated.
    switch (backend) {
      case Backend::Scalar:
      case Backend::Avx512:
        return false;
      case Backend::Portable:
      case Backend::Avx2:
      case Backend::MqxEmulate:
      case Backend::MqxPisa:
        break;
    }
    return true;
}

void
forward(const NttPlan& plan, Backend backend, DConstSpan in, DSpan out,
        DSpan scratch, Reduction red, StageFusion fusion)
{
    MQX_SCOPED_SPAN(ntt_span, "ntt.forward");
    const detail::PeaseShape shape = shapeFor(backend, plan.n(), red, fusion);
    tierKernels(backend).forward(plan, detail::forwardTwiddles(plan), in, out,
                                 scratch, shape);
}

void
inverse(const NttPlan& plan, Backend backend, DConstSpan in, DSpan out,
        DSpan scratch, Reduction red, StageFusion fusion)
{
    MQX_SCOPED_SPAN(ntt_span, "ntt.inverse");
    const detail::PeaseShape shape = shapeFor(backend, plan.n(), red, fusion);
    tierKernels(backend).inverse(plan, detail::inverseTwiddles(plan), in, out,
                                 scratch, shape);
}

namespace {

/** The Fig. 6 ablation: one MQX feature variant of the forward
 *  (@p fwd) or inverse in @p mode, Backend::MqxEmulate or MqxPisa. */
void
mqxAblation(bool fwd, Backend mode, const NttPlan& plan, MqxVariant variant,
            DConstSpan in, DSpan out, DSpan scratch, Reduction red,
            StageFusion fusion)
{
    requireAvailable(mode);
#if MQX_BUILD_AVX512
    const detail::PeaseShape shape = shapeFor(mode, plan.n(), red, fusion);
    if (fwd)
        detail::forwardMqxImpl(mode == Backend::MqxPisa, variant, plan,
                               detail::forwardTwiddles(plan), in, out,
                               scratch, shape);
    else
        detail::inverseMqxImpl(mode == Backend::MqxPisa, variant, plan,
                               detail::inverseTwiddles(plan), in, out,
                               scratch, shape);
#else
    (void)fwd;
    (void)plan;
    (void)variant;
    (void)in;
    (void)out;
    (void)scratch;
    (void)red;
    (void)fusion;
    throw BackendUnavailable("MQX backend not compiled in");
#endif
}

} // namespace

void
forwardMqx(const NttPlan& plan, MqxVariant variant, bool pisa, DConstSpan in,
           DSpan out, DSpan scratch, Reduction red, StageFusion fusion)
{
    mqxAblation(true, pisa ? Backend::MqxPisa : Backend::MqxEmulate, plan,
                variant, in, out, scratch, red, fusion);
}

void
inverseMqx(const NttPlan& plan, MqxVariant variant, bool pisa, DConstSpan in,
           DSpan out, DSpan scratch, Reduction red, StageFusion fusion)
{
    mqxAblation(false, pisa ? Backend::MqxPisa : Backend::MqxEmulate, plan,
                variant, in, out, scratch, red, fusion);
}

size_t
batchInterleave(Backend backend)
{
    switch (backend) {
      case Backend::Scalar:
      case Backend::Portable:
      case Backend::Avx2:
        return 4;
      case Backend::Avx512:
      case Backend::MqxEmulate:
      case Backend::MqxPisa:
        return 8;
    }
    return 4;
}

bool
batchSupported(const NttPlan& plan)
{
    return plan.n() >= 16;
}

namespace {

/** Shared batch accounting: spans plus the roofline-consistent sweep
 *  counters (il lanes, each sweeping the radix-2 per-transform bytes). */
void
noteBatchSweep(const NttPlan& plan, size_t il)
{
    static telemetry::Counter& channels =
        telemetry::counter("batch.channels_per_sweep");
    static telemetry::Counter& bytes = telemetry::counter("batch.bytes_swept");
    channels.add(il);
    bytes.add(il * plan.bytesSweptPerTransform(StageFusion::Radix2));
}

/**
 * The per-lane loop behind forwardBatch/inverseBatch: gather each lane
 * of the il-lane tiled group, run @p transform (ntt::forward or
 * ntt::inverse, default reduction and fusion) on it and scatter the
 * result back. The three n-word lane buffers are carved out of
 * @p scratch (il * n words, clobbered) whenever il >= 3, which covers
 * every batchInterleave() width; narrower calls stage on the heap.
 */
void
batchLaneLoop(const NttPlan& plan, Backend backend, size_t il, DConstSpan in,
              DSpan out, DSpan scratch, decltype(&forward) transform)
{
    detail::validateBatchNttArgs(plan, il, in, out, scratch);
    constexpr size_t w = BatchLayout::kTileWords;
    const size_t n = plan.n();
    ResidueVector spill;
    if (il < 3)
        spill.ensure(3 * n);
    const DSpan stage = il < 3 ? spill.span() : scratch;
    const DSpan lane_in{stage.hi, stage.lo, n};
    const DSpan lane_out{stage.hi + n, stage.lo + n, n};
    const DSpan lane_scratch{stage.hi + 2 * n, stage.lo + 2 * n, n};
    for (size_t c = 0; c < il; ++c) {
        for (size_t e = 0; e < n; e += w) {
            const size_t i = detail::batchIndex(e, c, il);
            std::copy_n(in.hi + i, w, lane_in.hi + e);
            std::copy_n(in.lo + i, w, lane_in.lo + e);
        }
        transform(plan, backend, lane_in, lane_out, lane_scratch,
                  Reduction::ShoupLazy, StageFusion::Auto);
        for (size_t e = 0; e < n; e += w) {
            const size_t i = detail::batchIndex(e, c, il);
            std::copy_n(lane_out.hi + e, w, out.hi + i);
            std::copy_n(lane_out.lo + e, w, out.lo + i);
        }
    }
}

} // namespace

void
forwardBatch(const NttPlan& plan, Backend backend, size_t il, DConstSpan in,
             DSpan out, DSpan scratch)
{
    MQX_SCOPED_SPAN(ntt_span, "ntt.forward_batch");
    requireAvailable(backend);
    checkArg(batchSupported(plan),
             "forwardBatch: plan too small (n < 16)");
    batchLaneLoop(plan, backend, il, in, out, scratch, &forward);
}

void
inverseBatch(const NttPlan& plan, Backend backend, size_t il, DConstSpan in,
             DSpan out, DSpan scratch)
{
    MQX_SCOPED_SPAN(ntt_span, "ntt.inverse_batch");
    requireAvailable(backend);
    checkArg(batchSupported(plan),
             "inverseBatch: plan too small (n < 16)");
    batchLaneLoop(plan, backend, il, in, out, scratch, &inverse);
}

void
negacyclicForward(const NegacyclicTables& tables, Backend backend,
                  DConstSpan in, DSpan out, DSpan scratch)
{
    const NttPlan& plan = tables.plan();
    tierKernels(backend).forward(
        plan, detail::forwardTwiddles(tables), in, out, scratch,
        shapeFor(backend, plan.n(), Reduction::ShoupLazy, StageFusion::Auto));
}

void
negacyclicInverse(const NegacyclicTables& tables, Backend backend,
                  DConstSpan in, DSpan out, DSpan scratch)
{
    const NttPlan& plan = tables.plan();
    tierKernels(backend).inverse(
        plan, detail::inverseTwiddles(tables), in, out, scratch,
        shapeFor(backend, plan.n(), Reduction::ShoupLazy, StageFusion::Auto));
}

void
negacyclicForwardBatch(const NegacyclicTables& tables, Backend backend,
                       size_t il, DConstSpan in, DSpan out, DSpan scratch)
{
    MQX_SCOPED_SPAN(ntt_span, "negacyclic.forward_batch");
    const TierKernels& k = tierKernels(backend);
    checkArg(batchSupported(tables.plan()),
             "negacyclicForwardBatch: plan too small (n < 16)");
    noteBatchSweep(tables.plan(), il);
    k.forwardBatch(tables.plan(), detail::forwardTwiddles(tables), il, in,
                   out, scratch);
}

void
negacyclicInverseBatch(const NegacyclicTables& tables, Backend backend,
                       size_t il, DConstSpan in, DSpan out, DSpan scratch)
{
    MQX_SCOPED_SPAN(ntt_span, "negacyclic.inverse_batch");
    const TierKernels& k = tierKernels(backend);
    checkArg(batchSupported(tables.plan()),
             "negacyclicInverseBatch: plan too small (n < 16)");
    noteBatchSweep(tables.plan(), il);
    // The batch inverse kernels read the merged table mirrored only.
    const detail::PeaseTwiddles tw = detail::inverseTwiddles(tables);
    checkArg(tw.mirrored, "negacyclicInverseBatch: merged tables only");
    k.inverseBatch(tables.plan(), tw, il, in, out, scratch);
}

Engine::Engine(const NttPlan& plan, Backend backend)
    : plan_(plan), backend_(backend), buf_a_(plan.n()), buf_b_(plan.n()),
      buf_c_(plan.n()), scratch_(plan.n())
{
    requireAvailable(backend_);
}

Engine::Engine(const NttPlan& plan) : Engine(plan, bestBackend()) {}

std::vector<U128>
Engine::forward(const std::vector<U128>& input)
{
    checkArg(input.size() == plan_.n(), "Engine::forward: size mismatch");
    buf_in_.assignFromU128(input);
    ntt::forward(plan_, backend_, buf_in_.span(), buf_a_.span(),
                 scratch_.span());
    return buf_a_.toU128();
}

std::vector<U128>
Engine::inverse(const std::vector<U128>& input)
{
    checkArg(input.size() == plan_.n(), "Engine::inverse: size mismatch");
    buf_in_.assignFromU128(input);
    ntt::inverse(plan_, backend_, buf_in_.span(), buf_a_.span(),
                 scratch_.span());
    return buf_a_.toU128();
}

std::vector<U128>
Engine::forwardNatural(const std::vector<U128>& input)
{
    checkArg(input.size() == plan_.n(),
             "Engine::forwardNatural: size mismatch");
    buf_in_.assignFromU128(input);
    ntt::forward(plan_, backend_, buf_in_.span(), buf_a_.span(),
                 scratch_.span());
    DSpan s = buf_a_.span();
    bitReversePermute(s);
    return buf_a_.toU128();
}

std::vector<U128>
Engine::polymulCyclic(const std::vector<U128>& f, const std::vector<U128>& g)
{
    checkArg(f.size() == plan_.n() && g.size() == plan_.n(),
             "Engine::polymulCyclic: size mismatch");
    buf_in_.assignFromU128(f);
    buf_in2_.assignFromU128(g);
    ntt::forward(plan_, backend_, buf_in_.span(), buf_a_.span(),
                 scratch_.span());
    ntt::forward(plan_, backend_, buf_in2_.span(), buf_b_.span(),
                 scratch_.span());
    // Point-wise multiply in the (bit-reversed) transformed domain.
    const Modulus& m = plan_.modulus();
    for (size_t i = 0; i < plan_.n(); ++i)
        buf_c_.set(i, m.mul(buf_a_.at(i), buf_b_.at(i)));
    ntt::inverse(plan_, backend_, buf_c_.span(), buf_a_.span(),
                 scratch_.span());
    return buf_a_.toU128();
}

} // namespace ntt
} // namespace mqx
