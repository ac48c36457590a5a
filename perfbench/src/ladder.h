/**
 * @file
 * The per-layer ladder: one call into each layer below Engine, made at
 * a workload's own shape (q, n, backend, operands) and recorded as a
 * span keyed by the op id.
 *
 *   ntt.fwd / ntt.inv       NegacyclicEngine::forward / inverse
 *   ntt.fwd_batch           ntt::forwardBatch over il packed lanes
 *   ntt.pointwise_acc       NegacyclicEngine::pointwiseAccumulate
 *   rns.polymul_channel     rns::detail::polymulChannel
 *   rns.fma_channel         the fmaChannel flavour Engine picks
 *   net.encode / net.decode encodeRequestFrame / decodeResponse
 *
 * Each probe runs on channel (op % k) with the tables Engine's plan
 * cache holds for it. Results are checked: transforms by round trip,
 * channel ops and decoded frames word for word against the Scalar
 * reference.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common.h"
#include "core/aligned.h"
#include "engine/engine.h"
#include "net/wire.h"
#include "trace.h"

namespace perfbench {

using Products = std::vector<
    std::pair<const mqx::rns::RnsPolynomial*, const mqx::rns::RnsPolynomial*>>;

class LayerProbe
{
  public:
    /**
     * @p products is the workload's operand list (one pair for a
     * polymul, several for an fma); @p spec names @p basis on the wire.
     * References come from @p scalar_ref, a Scalar single-thread
     * Engine.
     */
    LayerProbe(const mqx::rns::RnsBasis& basis, size_t n,
               mqx::Backend backend, mqx::engine::PlanCache& cache,
               const Products& products, const mqx::net::BasisSpec& spec,
               mqx::engine::Engine& scalar_ref);

    /** One call per layer for op @p op. Returns false on a mismatch. */
    bool run(uint64_t op, SpanLog& log);

    /** The ntt.*, rns.* and net wire metrics from run()'s spans. */
    std::vector<Metric> metrics(const SpanLog& log) const;

  private:
    const mqx::rns::RnsBasis& basis_;
    mqx::Backend backend_;
    Products products_;
    std::vector<std::shared_ptr<const mqx::ntt::NegacyclicTables>> tables_;
    /** Plans for the batch probe: the cached plan when batch-capable,
     *  else a direct plan of the same (q, n). */
    std::vector<std::shared_ptr<const mqx::ntt::NttPlan>> batch_plans_;
    std::vector<mqx::ResidueVector> b_eval_;
    mqx::ntt::NegacyclicWorkspacePool workspaces_;
    std::unique_ptr<mqx::ntt::NegacyclicEngine> ntt_;
    mqx::ResidueVector fwd_, inv_, acc_;
    size_t il_ = 1;
    std::vector<mqx::ResidueVector> packed_in_; ///< per channel
    mqx::ResidueVector packed_out_, packed_back_, packed_scratch_;
    bool fma_batched_ = false;
    size_t fwd_inv_bytes_ = 0;
    std::unique_ptr<mqx::rns::RnsPolynomial> ref_polymul_, ref_fma_, out_;
    mqx::net::Request request_;
    std::vector<uint8_t> response_frame_;
};

/** Engine bookkeeping counters at one instant. */
struct EngineCounters
{
    uint64_t plan_misses = 0;
    uint64_t pool_tasks = 0;
    uint64_t pool_steals = 0;
    uint64_t caller_tasks = 0;
    uint64_t leases = 0;

    static EngineCounters read(mqx::engine::Engine& eng);
};

/**
 * engine.op_ns, engine.efficiency (k x @p channel_ns / (T x op ns))
 * and the per-op counter deltas between @p before and @p after, over
 * @p ops ops.
 */
std::vector<Metric> engineMetrics(mqx::engine::Engine& eng, size_t k,
                                  double op_ns, double channel_ns,
                                  const EngineCounters& before,
                                  const EngineCounters& after, double ops);

} // namespace perfbench
