/**
 * @file
 * Public NTT API: per-backend transforms plus the high-level Engine.
 *
 * Ordering convention (see plan.h): forward() maps natural order to
 * bit-reversed order; inverse() maps bit-reversed back to natural. The
 * two compose to the identity with no explicit permutation, and
 * point-wise products between forward outputs are order-consistent, so
 * the polynomial-multiplication path never bit-reverses. Call
 * bitReversePermute() on the forward output if natural-order evaluations
 * are needed (the reference transforms produce natural order).
 */
#pragma once

#include "core/backend.h"
#include "ntt/plan.h"

namespace mqx {
namespace ntt {

/**
 * Forward NTT with the chosen backend.
 *
 * @param in      input, natural order (not modified)
 * @param out     result, bit-reversed order
 * @param scratch working buffer, same size; clobbered
 * @param red     Reduction::ShoupLazy (default) runs Harvey lazy
 *                butterflies on the plan's Shoup twiddle companions;
 *                Reduction::Barrett keeps the paper's per-butterfly
 *                full reduction, and Reduction::BarrettKaratsuba runs
 *                it on Karatsuba products (the Section 5.5 ablation).
 *                Outputs are bit-identical.
 * @param fusion  StageFusion::Auto (default) picks the measured-fastest
 *                shape per (backend, n) via resolveStageFusion();
 *                Radix4 fuses two Pease stages per ping-pong sweep,
 *                Radix2 keeps one stage per sweep (A/B baseline).
 *                Outputs are bit-identical; both Barrett reductions
 *                always run the radix-2 stage loop.
 *
 * @throws BackendUnavailable if @p backend cannot run on this host.
 */
void forward(const NttPlan& plan, Backend backend, DConstSpan in, DSpan out,
             DSpan scratch, Reduction red = Reduction::ShoupLazy,
             StageFusion fusion = StageFusion::Auto);

/** Inverse NTT (bit-reversed in, natural out, scaled by n^-1). */
void inverse(const NttPlan& plan, Backend backend, DConstSpan in, DSpan out,
             DSpan scratch, Reduction red = Reduction::ShoupLazy,
             StageFusion fusion = StageFusion::Auto);

/**
 * Resolve StageFusion::Auto to a concrete shape for (backend, n), from
 * the committed BENCH_ntt.json: Scalar and AVX2 fuse at every n,
 * AVX-512 below n = 1024 and from 16384, the MQX tiers from 65536;
 * Portable never fuses. Radix4/Radix2 requests pass through unchanged;
 * the backend entry points never see Auto.
 */
StageFusion resolveStageFusion(Backend backend, size_t n, StageFusion fusion);

/**
 * The channel path of engine::Engine::fmaBatch on @p backend, from
 * alternated fmaChannel / fmaChannelBatched timings at n = 1024, 4096
 * and 32768: true runs each whole tile of il all-Coeff products
 * through the interleaved batch kernels (AVX2, Portable and the MQX
 * tiers), false runs every product through the per-channel forwards
 * and one lazily reduced dot product (Scalar, AVX-512). Both give the
 * same words.
 */
bool fmaBatchKernelsWin(Backend backend);

/**
 * Forward NTT with an explicit MQX feature variant (Fig. 6 ablation).
 * @param pisa true = PISA proxy timing mode (results are wrong by
 *             design), false = bit-exact Table-2 emulation.
 */
void forwardMqx(const NttPlan& plan, MqxVariant variant, bool pisa,
                DConstSpan in, DSpan out, DSpan scratch,
                Reduction red = Reduction::ShoupLazy,
                StageFusion fusion = StageFusion::Auto);

/** Inverse counterpart of forwardMqx. */
void inverseMqx(const NttPlan& plan, MqxVariant variant, bool pisa,
                DConstSpan in, DSpan out, DSpan scratch,
                Reduction red = Reduction::ShoupLazy,
                StageFusion fusion = StageFusion::Auto);

/**
 * Interleave factor of the merged negacyclic batch kernels
 * (negacyclicForwardBatch/InverseBatch) for @p backend: how many
 * residue channels one stage sweep serves (the IL knob of the
 * channel-major tiled layout, core/batch_layout.h). 4 for the 4-lane
 * AVX2 tier and the narrow scalar/portable tiers, 8 for the 8-lane
 * AVX-512 and MQX tiers.
 */
size_t batchInterleave(Backend backend);

/**
 * True when @p plan is eligible for the interleaved batch kernels:
 * n >= 16.
 */
bool batchSupported(const NttPlan& plan);

/**
 * Forward NTT over @p il channels packed in the interleaved batch
 * layout (batch::packLanes); buffers are il * plan.n() words per half.
 * A per-lane loop: each lane is gathered, run through forward() and
 * scattered back, so its output is word-identical to a per-channel
 * forward() with any fusion/reduction. @p scratch is clobbered; at
 * il >= 3 it also stages the lanes, so the call allocates nothing.
 * No Engine op runs this: the batched ops use negacyclicForwardBatch
 * (ntt/negacyclic.h). It remains for the perfbench ladder's
 * ntt.fwd_batch probe.
 * @throws InvalidArgument when !batchSupported(plan), or on bad buffer
 *         sizes or overlapping buffers.
 */
void forwardBatch(const NttPlan& plan, Backend backend, size_t il,
                  DConstSpan in, DSpan out, DSpan scratch);

/** Inverse counterpart of forwardBatch: the same per-lane loop over
 *  inverse() (includes the n^-1 pass). */
void inverseBatch(const NttPlan& plan, Backend backend, size_t il,
                  DConstSpan in, DSpan out, DSpan scratch);

/**
 * Convenience wrapper owning the plan and work buffers. This is the
 * friendly entry point used by the examples; performance-critical code
 * should call forward()/inverse() on preallocated buffers.
 */
class Engine
{
  public:
    /** @param backend defaults to the best available on this host. */
    Engine(const NttPlan& plan, Backend backend);
    explicit Engine(const NttPlan& plan);

    const NttPlan& plan() const { return plan_; }
    Backend backend() const { return backend_; }

    /** Forward transform; returns bit-reversed-order evaluations. */
    std::vector<U128> forward(const std::vector<U128>& input);

    /** Inverse transform of bit-reversed-order evaluations. */
    std::vector<U128> inverse(const std::vector<U128>& input);

    /** Forward transform with natural-order output (extra permutation). */
    std::vector<U128> forwardNatural(const std::vector<U128>& input);

    /**
     * Cyclic polynomial multiplication via the convolution theorem:
     * INTT(NTT(f) .* NTT(g)).
     */
    std::vector<U128> polymulCyclic(const std::vector<U128>& f,
                                    const std::vector<U128>& g);

  private:
    NttPlan plan_;
    Backend backend_;
    ResidueVector buf_a_, buf_b_, buf_c_, scratch_;
    ResidueVector buf_in_, buf_in2_; ///< U128-boundary staging (reused)
};

} // namespace ntt
} // namespace mqx
