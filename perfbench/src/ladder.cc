#include "ladder.h"

#include "core/batch_layout.h"
#include "ntt/ntt.h"
#include "sol/sol_model.h"

namespace perfbench {

using mqx::DConstSpan;
using mqx::ResidueVector;
namespace ntt = mqx::ntt;
namespace rns = mqx::rns;
namespace net = mqx::net;

LayerProbe::LayerProbe(const rns::RnsBasis& basis, size_t n,
                       mqx::Backend backend, mqx::engine::PlanCache& cache,
                       const Products& products, const net::BasisSpec& spec,
                       mqx::engine::Engine& scalar_ref)
    : basis_(basis), backend_(backend), products_(products),
      fwd_(n), inv_(n), acc_(n)
{
    const size_t k = basis.size();
    const rns::RnsPolynomial& a0 = *products.front().first;
    const rns::RnsPolynomial& b0 = *products.front().second;
    il_ = ntt::batchInterleave(backend);
    const mqx::BatchLayout layout(n, il_, il_);
    for (size_t c = 0; c < k; ++c) {
        tables_.push_back(cache.getNegacyclic(basis.prime(c), n));
        auto plan = std::shared_ptr<const ntt::NttPlan>(
            tables_.back(), &tables_.back()->plan());
        if (!ntt::batchSupported(*plan))
            plan = std::make_shared<const ntt::NttPlan>(basis.prime(c), n,
                                                        size_t{0});
        batch_plans_.push_back(plan);

        ntt::NegacyclicEngine eng(tables_.back(), backend);
        b_eval_.emplace_back(n);
        eng.forward(b0.channel(c).span(), b_eval_.back().span());

        // il lanes drawn round-robin from the operand list.
        std::vector<DConstSpan> lanes;
        for (size_t l = 0; l < il_; ++l) {
            const auto& [a, b] = products[(l / 2) % products.size()];
            lanes.push_back((l % 2 ? b : a)->channel(c).span());
        }
        packed_in_.emplace_back(layout.totalWords());
        mqx::batch::packLanes(layout, lanes.data(), lanes.size(),
                              packed_in_.back().span());
    }
    packed_out_ = ResidueVector(layout.totalWords());
    packed_back_ = ResidueVector(layout.totalWords());
    packed_scratch_ = ResidueVector(layout.totalWords());
    ntt_ = std::make_unique<ntt::NegacyclicEngine>(tables_[0], backend);
    fma_batched_ = products.size() >= il_ &&
                   ntt::batchSupported(tables_[0]->plan());
    fwd_inv_bytes_ =
        2 * tables_[0]->plan().bytesSweptPerTransform(ntt::resolveStageFusion(
                backend, n, mqx::StageFusion::Auto));

    ref_polymul_ = std::make_unique<rns::RnsPolynomial>(
        scalar_ref.polymulNegacyclic(a0, b0));
    ref_fma_ = std::make_unique<rns::RnsPolynomial>(*ref_polymul_);
    for (size_t p = 1; p < products.size(); ++p)
        *ref_fma_ = scalar_ref.add(
            *ref_fma_, scalar_ref.polymulNegacyclic(*products[p].first,
                                                    *products[p].second));
    out_ = std::make_unique<rns::RnsPolynomial>(basis, n);

    request_.op = products.size() == 1 ? net::OpKind::Polymul
                                       : net::OpKind::Fma;
    request_.request_id = 1;
    request_.basis = spec;
    request_.n = static_cast<uint32_t>(n);
    for (const auto& [a, b] : products)
        for (const rns::RnsPolynomial* p : {a, b})
            for (size_t c = 0; c < k; ++c)
                request_.operands.push_back(p->channel(c));
    net::Response resp;
    resp.request_id = 1;
    resp.basis = spec;
    resp.n = static_cast<uint32_t>(n);
    for (size_t c = 0; c < k; ++c)
        resp.channels.push_back(ref_fma_->channel(c));
    response_frame_ = net::encodeResponseFrame(resp);
}

bool
LayerProbe::run(uint64_t op, SpanLog& log)
{
    const size_t c = op % basis_.size();
    const auto& [a0, b0] = products_.front();
    bool ok = true;
    auto timed = [&](const char* name, auto&& call) {
        const uint64_t t0 = nowNs();
        call();
        log.add(name, op, SpanLog::kNoParent, t0, nowNs());
    };

    ntt_->rebind(tables_[c], backend_);
    timed("ntt.fwd", [&] { ntt_->forward(a0->channel(c).span(), fwd_.span()); });
    timed("ntt.inv", [&] { ntt_->inverse(fwd_.span(), inv_.span()); });
    ok = ok && inv_ == a0->channel(c);
    acc_.zero();
    timed("ntt.pointwise_acc", [&] {
        ntt_->pointwiseAccumulate(acc_.span(), fwd_.span(),
                                  b_eval_[c].span());
    });

    const ntt::NttPlan& plan = *batch_plans_[c];
    timed("ntt.fwd_batch", [&] {
        ntt::forwardBatch(plan, backend_, il_, packed_in_[c].span(),
                          packed_out_.span(), packed_scratch_.span());
    });
    ntt::inverseBatch(plan, backend_, il_, packed_out_.span(),
                      packed_back_.span(), packed_scratch_.span());
    ok = ok && packed_back_ == packed_in_[c];

    timed("rns.polymul_channel", [&] {
        rns::detail::polymulChannel(backend_, basis_, c, tables_[c],
                                    workspaces_, *a0, *b0, *out_);
    });
    ok = ok && out_->channel(c) == ref_polymul_->channel(c);
    timed("rns.fma_channel", [&] {
        if (fma_batched_)
            rns::detail::fmaChannelBatched(backend_, basis_, c, tables_[c],
                                           workspaces_, products_, il_,
                                           *out_);
        else
            rns::detail::fmaChannel(backend_, basis_, c, tables_[c],
                                    workspaces_, products_, *out_);
    });
    ok = ok && out_->channel(c) == ref_fma_->channel(c);

    std::vector<uint8_t> frame;
    timed("net.encode", [&] { frame = net::encodeRequestFrame(request_); });
    net::Request echoed;
    ok = ok && net::decodeRequest(frame.data() + net::kHeaderBytes,
                                  frame.size() - net::kHeaderBytes, echoed)
                   .ok() &&
         echoed.operands == request_.operands;
    net::Response resp;
    mqx::robust::Status st;
    timed("net.decode", [&] {
        st = net::decodeResponse(response_frame_.data() + net::kHeaderBytes,
                                 response_frame_.size() - net::kHeaderBytes,
                                 resp);
    });
    ok = ok && st.ok() && resp.channels.size() == basis_.size();
    for (size_t ch = 0; ok && ch < resp.channels.size(); ++ch)
        ok = resp.channels[ch] == ref_fma_->channel(ch);
    return ok;
}

std::vector<Metric>
LayerProbe::metrics(const SpanLog& log) const
{
    const double fwd = log.medianNs("ntt.fwd");
    const double inv = log.medianNs("ntt.inv");
    const double channel = log.medianNs("rns.polymul_channel");
    const double floor_ns = mqx::sol::dramFloorNs(fwd_inv_bytes_,
                                                  mqx::sol::intelXeon8352Y());
    return {
        {"ntt.fwd_ns", fwd, "ns"},
        {"ntt.inv_ns", inv, "ns"},
        {"ntt.fwd_batch_ns_per_lane",
         log.medianNs("ntt.fwd_batch") / static_cast<double>(il_), "ns"},
        {"ntt.pointwise_acc_ns", log.medianNs("ntt.pointwise_acc"), "ns"},
        {"ntt.bytes_computed", static_cast<double>(fwd_inv_bytes_), "bytes"},
        {"ntt.floor_ratio", (fwd + inv) / floor_ns, "ratio"},
        {"rns.polymul_channel_ns", channel, "ns"},
        {"rns.polymul_vs_fwdinv", channel / (fwd + inv), "ratio"},
        {"rns.fma_channel_ns", log.medianNs("rns.fma_channel"), "ns"},
        {"net.encode_us", log.medianNs("net.encode") / 1e3, "us"},
        {"net.decode_us", log.medianNs("net.decode") / 1e3, "us"},
    };
}

EngineCounters
EngineCounters::read(mqx::engine::Engine& eng)
{
    const auto pool = eng.pool().stats();
    return EngineCounters{eng.planCache().stats().misses, pool.submitted,
                          pool.steals, pool.caller_tasks,
                          eng.workspacePool().totalLeases()};
}

std::vector<Metric>
engineMetrics(mqx::engine::Engine& eng, size_t k, double op_ns,
              double channel_ns, const EngineCounters& before,
              const EngineCounters& after, double ops)
{
    auto perOp = [&](uint64_t EngineCounters::*field) {
        return static_cast<double>(after.*field - before.*field) / ops;
    };
    return {
        {"engine.op_ns", op_ns, "ns"},
        {"engine.efficiency",
         static_cast<double>(k) * channel_ns /
             (static_cast<double>(eng.threads()) * op_ns),
         "ratio"},
        {"engine.plan_misses_timed",
         static_cast<double>(after.plan_misses - before.plan_misses),
         "count"},
        {"engine.pool_tasks_per_op", perOp(&EngineCounters::pool_tasks),
         "tasks/op"},
        {"engine.pool_steals_per_op", perOp(&EngineCounters::pool_steals),
         "tasks/op"},
        {"engine.caller_tasks_per_op", perOp(&EngineCounters::caller_tasks),
         "tasks/op"},
        {"engine.leases_per_op", perOp(&EngineCounters::leases),
         "leases/op"},
    };
}

} // namespace perfbench
