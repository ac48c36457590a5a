/**
 * @file
 * Public NTT dispatch and the convenience Engine.
 */
#include "ntt/ntt.h"

#include <algorithm>

#include "core/batch_layout.h"
#include "core/config.h"
#include "ntt/negacyclic.h"
#include "ntt/negacyclic_backends.h"
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

/** One backend's merged negacyclic entry points (ntt/negacyclic.h). */
struct NegacyclicKernels
{
    decltype(&backends::negacyclicForwardScalar) forward;
    decltype(&backends::negacyclicInverseScalar) inverse;
    decltype(&backends::negacyclicForwardBatchScalar) forwardBatch;
    decltype(&backends::negacyclicInverseBatchScalar) inverseBatch;
};

#if MQX_BUILD_AVX512
/** The Backend::Avx512 entry points: one tier body, two multiplies. */
struct Avx512Tier
{
    decltype(&backends::forwardAvx512) forward;
    decltype(&backends::inverseAvx512) inverse;
    NegacyclicKernels negacyclic;
};

const Avx512Tier&
avx512Tier()
{
    static const Avx512Tier tier = [] {
#if MQX_BUILD_AVX512_IFMA
        if (avx512Ifma())
            return Avx512Tier{&backends::forwardAvx512Ifma,
                              &backends::inverseAvx512Ifma,
                              {&backends::negacyclicForwardAvx512Ifma,
                               &backends::negacyclicInverseAvx512Ifma,
                               &backends::negacyclicForwardBatchAvx512Ifma,
                               &backends::negacyclicInverseBatchAvx512Ifma}};
#endif
        return Avx512Tier{&backends::forwardAvx512,
                          &backends::inverseAvx512,
                          {&backends::negacyclicForwardAvx512,
                           &backends::negacyclicInverseAvx512,
                           &backends::negacyclicForwardBatchAvx512,
                           &backends::negacyclicInverseBatchAvx512}};
    }();
    return tier;
}

/** The MQX entry points for one mode, as captureless forwarders. */
template <bool kPisa>
const NegacyclicKernels&
mqxNegacyclic()
{
    static const NegacyclicKernels k{
        [](const NegacyclicTables& t, DConstSpan in, DSpan out,
           DSpan scratch) {
            backends::negacyclicForwardMqx(kPisa, t, in, out, scratch);
        },
        [](const NegacyclicTables& t, DConstSpan in, DSpan out,
           DSpan scratch) {
            backends::negacyclicInverseMqx(kPisa, t, in, out, scratch);
        },
        [](const NegacyclicTables& t, size_t il, DConstSpan in, DSpan out,
           DSpan scratch) {
            backends::negacyclicForwardBatchMqx(kPisa, t, il, in, out,
                                                scratch);
        },
        [](const NegacyclicTables& t, size_t il, DConstSpan in, DSpan out,
           DSpan scratch) {
            backends::negacyclicInverseBatchMqx(kPisa, t, il, in, out,
                                                scratch);
        }};
    return k;
}
#endif

const NegacyclicKernels&
negacyclicKernels(Backend backend)
{
    requireAvailable(backend);
    static const NegacyclicKernels scalar{
        &backends::negacyclicForwardScalar,
        &backends::negacyclicInverseScalar,
        &backends::negacyclicForwardBatchScalar,
        &backends::negacyclicInverseBatchScalar};
    static const NegacyclicKernels portable{
        &backends::negacyclicForwardPortable,
        &backends::negacyclicInversePortable,
        &backends::negacyclicForwardBatchPortable,
        &backends::negacyclicInverseBatchPortable};
    switch (backend) {
      case Backend::Scalar:
        return scalar;
      case Backend::Portable:
        return portable;
      case Backend::Avx2: {
#if MQX_BUILD_AVX2
        static const NegacyclicKernels avx2{
            &backends::negacyclicForwardAvx2,
            &backends::negacyclicInverseAvx2,
            &backends::negacyclicForwardBatchAvx2,
            &backends::negacyclicInverseBatchAvx2};
        return avx2;
#else
        break;
#endif
      }
      case Backend::Avx512:
#if MQX_BUILD_AVX512
        return avx512Tier().negacyclic;
#else
        break;
#endif
      case Backend::MqxEmulate:
#if MQX_BUILD_AVX512
        return mqxNegacyclic<false>();
#else
        break;
#endif
      case Backend::MqxPisa:
#if MQX_BUILD_AVX512
        return mqxNegacyclic<true>();
#else
        break;
#endif
    }
    throw BackendUnavailable("NTT backend not compiled in: " +
                             backendName(backend));
}

} // namespace

StageFusion
resolveStageFusion(Backend backend, size_t n, StageFusion fusion)
{
    if (fusion != StageFusion::Auto)
        return fusion;
    // BENCH_ntt.json on an AMD EPYC: Scalar fused_speedup is 1.04-1.16x
    // at every measured n, so it always fuses. Portable (0.88-0.91x),
    // AVX2 (0.83-0.86x) and AVX-512 (0.86-0.98x) lose at every n in
    // 256..65536: the fused bodies' shuffles cost more than the sweeps
    // they save. The MQX tiers keep the earlier rule (radix-2 below
    // n = 65536, radix-4 from there; Xeon @ 2.10GHz), which the EPYC
    // data does not cover.
    if (backend == Backend::Scalar)
        return StageFusion::Radix4;
    if (backend != Backend::MqxEmulate && backend != Backend::MqxPisa)
        return StageFusion::Radix2;
    constexpr size_t kMqxRadix4MinN = 65536;
    return n >= kMqxRadix4MinN ? StageFusion::Radix4 : StageFusion::Radix2;
}

void
forward(const NttPlan& plan, Backend backend, DConstSpan in, DSpan out,
        DSpan scratch, MulAlgo algo, Reduction red, StageFusion fusion)
{
    MQX_SCOPED_SPAN(ntt_span, "ntt.forward");
    requireAvailable(backend);
    fusion = resolveStageFusion(backend, plan.n(), fusion);
    switch (backend) {
      case Backend::Scalar:
        backends::forwardScalar(plan, in, out, scratch, algo, red, fusion);
        return;
      case Backend::Portable:
        backends::forwardPortable(plan, in, out, scratch, algo, red, fusion);
        return;
      case Backend::Avx2:
#if MQX_BUILD_AVX2
        backends::forwardAvx2(plan, in, out, scratch, algo, red, fusion);
        return;
#else
        break;
#endif
      case Backend::Avx512:
#if MQX_BUILD_AVX512
        avx512Tier().forward(plan, in, out, scratch, algo, red, fusion);
        return;
#else
        break;
#endif
      case Backend::MqxEmulate:
#if MQX_BUILD_AVX512
        backends::forwardMqxImpl(plan, MqxVariant::Full, false, in, out,
                                 scratch, algo, red, fusion);
        return;
#else
        break;
#endif
      case Backend::MqxPisa:
#if MQX_BUILD_AVX512
        backends::forwardMqxImpl(plan, MqxVariant::Full, true, in, out,
                                 scratch, algo, red, fusion);
        return;
#else
        break;
#endif
    }
    throw BackendUnavailable("NTT backend not compiled in: " +
                             backendName(backend));
}

void
inverse(const NttPlan& plan, Backend backend, DConstSpan in, DSpan out,
        DSpan scratch, MulAlgo algo, Reduction red, StageFusion fusion)
{
    MQX_SCOPED_SPAN(ntt_span, "ntt.inverse");
    requireAvailable(backend);
    fusion = resolveStageFusion(backend, plan.n(), fusion);
    switch (backend) {
      case Backend::Scalar:
        backends::inverseScalar(plan, in, out, scratch, algo, red, fusion);
        return;
      case Backend::Portable:
        backends::inversePortable(plan, in, out, scratch, algo, red, fusion);
        return;
      case Backend::Avx2:
#if MQX_BUILD_AVX2
        backends::inverseAvx2(plan, in, out, scratch, algo, red, fusion);
        return;
#else
        break;
#endif
      case Backend::Avx512:
#if MQX_BUILD_AVX512
        avx512Tier().inverse(plan, in, out, scratch, algo, red, fusion);
        return;
#else
        break;
#endif
      case Backend::MqxEmulate:
#if MQX_BUILD_AVX512
        backends::inverseMqxImpl(plan, MqxVariant::Full, false, in, out,
                                 scratch, algo, red, fusion);
        return;
#else
        break;
#endif
      case Backend::MqxPisa:
#if MQX_BUILD_AVX512
        backends::inverseMqxImpl(plan, MqxVariant::Full, true, in, out,
                                 scratch, algo, red, fusion);
        return;
#else
        break;
#endif
    }
    throw BackendUnavailable("NTT backend not compiled in: " +
                             backendName(backend));
}

void
forwardMqx(const NttPlan& plan, MqxVariant variant, bool pisa, DConstSpan in,
           DSpan out, DSpan scratch, MulAlgo algo, Reduction red,
           StageFusion fusion)
{
    requireAvailable(Backend::MqxEmulate);
    fusion = resolveStageFusion(pisa ? Backend::MqxPisa : Backend::MqxEmulate,
                                plan.n(), fusion);
#if MQX_BUILD_AVX512
    backends::forwardMqxImpl(plan, variant, pisa, in, out, scratch, algo,
                             red, fusion);
#else
    (void)plan;
    (void)variant;
    (void)pisa;
    (void)in;
    (void)out;
    (void)scratch;
    (void)algo;
    (void)red;
    (void)fusion;
    throw BackendUnavailable("MQX backend not compiled in");
#endif
}

void
inverseMqx(const NttPlan& plan, MqxVariant variant, bool pisa, DConstSpan in,
           DSpan out, DSpan scratch, MulAlgo algo, Reduction red,
           StageFusion fusion)
{
    requireAvailable(Backend::MqxEmulate);
    fusion = resolveStageFusion(pisa ? Backend::MqxPisa : Backend::MqxEmulate,
                                plan.n(), fusion);
#if MQX_BUILD_AVX512
    backends::inverseMqxImpl(plan, variant, pisa, in, out, scratch, algo,
                             red, fusion);
#else
    (void)plan;
    (void)variant;
    (void)pisa;
    (void)in;
    (void)out;
    (void)scratch;
    (void)algo;
    (void)red;
    (void)fusion;
    throw BackendUnavailable("MQX backend not compiled in");
#endif
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
    telemetry::counter("batch.channels_per_sweep").add(il);
    telemetry::counter("batch.bytes_swept")
        .add(il * plan.bytesSweptPerTransform(StageFusion::Radix2));
}

/**
 * The per-lane loop behind forwardBatch/inverseBatch: gather each lane
 * of the il-lane tiled group, run @p transform on it and scatter the
 * result back. The three n-word lane buffers are carved out of
 * @p scratch (il * n words, clobbered) whenever il >= 3, which covers
 * every batchInterleave() width; narrower calls stage on the heap.
 */
template <class Transform>
void
batchLaneLoop(const NttPlan& plan, size_t il, DConstSpan in, DSpan out,
              DSpan scratch, Transform&& transform)
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
        transform(lane_in, lane_out, lane_scratch);
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
             DSpan out, DSpan scratch, MulAlgo algo)
{
    MQX_SCOPED_SPAN(ntt_span, "ntt.forward_batch");
    requireAvailable(backend);
    checkArg(batchSupported(plan),
             "forwardBatch: plan too small (n < 16)");
    batchLaneLoop(plan, il, in, out, scratch,
                  [&](DConstSpan x, DSpan y, DSpan scr) {
                      forward(plan, backend, x, y, scr, algo);
                  });
}

void
inverseBatch(const NttPlan& plan, Backend backend, size_t il, DConstSpan in,
             DSpan out, DSpan scratch, MulAlgo algo)
{
    MQX_SCOPED_SPAN(ntt_span, "ntt.inverse_batch");
    requireAvailable(backend);
    checkArg(batchSupported(plan),
             "inverseBatch: plan too small (n < 16)");
    batchLaneLoop(plan, il, in, out, scratch,
                  [&](DConstSpan x, DSpan y, DSpan scr) {
                      inverse(plan, backend, x, y, scr, algo);
                  });
}

void
negacyclicForward(const NegacyclicTables& tables, Backend backend,
                  DConstSpan in, DSpan out, DSpan scratch)
{
    negacyclicKernels(backend).forward(tables, in, out, scratch);
}

void
negacyclicInverse(const NegacyclicTables& tables, Backend backend,
                  DConstSpan in, DSpan out, DSpan scratch)
{
    negacyclicKernels(backend).inverse(tables, in, out, scratch);
}

void
negacyclicForwardBatch(const NegacyclicTables& tables, Backend backend,
                       size_t il, DConstSpan in, DSpan out, DSpan scratch)
{
    MQX_SCOPED_SPAN(ntt_span, "negacyclic.forward_batch");
    const NegacyclicKernels& k = negacyclicKernels(backend);
    checkArg(batchSupported(tables.plan()),
             "negacyclicForwardBatch: plan too small (n < 16)");
    noteBatchSweep(tables.plan(), il);
    k.forwardBatch(tables, il, in, out, scratch);
}

void
negacyclicInverseBatch(const NegacyclicTables& tables, Backend backend,
                       size_t il, DConstSpan in, DSpan out, DSpan scratch)
{
    MQX_SCOPED_SPAN(ntt_span, "negacyclic.inverse_batch");
    const NegacyclicKernels& k = negacyclicKernels(backend);
    checkArg(batchSupported(tables.plan()),
             "negacyclicInverseBatch: plan too small (n < 16)");
    noteBatchSweep(tables.plan(), il);
    k.inverseBatch(tables, il, in, out, scratch);
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
