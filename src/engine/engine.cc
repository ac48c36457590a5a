/**
 * @file
 * Engine facade implementation: batched RNS channel dispatch, with the
 * robustness plumbing (robust/) threaded through every op — optional
 * cancellation checkpoints at task boundaries, policy-driven Freivalds
 * verification with repair through the same channel bodies, and a
 * fallback from the interleaved batch kernels to the per-channel path
 * on injected batch failures.
 */
#include "engine/engine.h"

#include <algorithm>
#include <exception>
#include <memory>
#include <string>

#include "core/config.h"
#include "robust/fault_injection.h"
#include "robust/status.h"
#include "telemetry/telemetry.h"

namespace mqx {
namespace engine {

namespace {

Backend
requireAvailable(Backend backend)
{
    if (!backendAvailable(backend))
        throw BackendUnavailable(
            "Engine backend not available on this host: " +
            backendName(backend));
    return backend;
}

// Process-wide robustness counters; every Engine instance feeds the
// same ones so verification and recovery activity is visible in
// telemetry::snapshotJson() regardless of which engine did the work.
telemetry::Counter&
verifyChecks()
{
    static telemetry::Counter& c = telemetry::counter("verify.checks");
    return c;
}

telemetry::Counter&
verifyFailures()
{
    static telemetry::Counter& c = telemetry::counter("verify.failures");
    return c;
}

telemetry::Counter&
robustRetries()
{
    static telemetry::Counter& c = telemetry::counter("robust.retries");
    return c;
}

telemetry::Counter&
robustRepairs()
{
    static telemetry::Counter& c = telemetry::counter("robust.repairs");
    return c;
}

telemetry::Counter&
robustFailures()
{
    static telemetry::Counter& c = telemetry::counter("robust.failures");
    return c;
}

telemetry::Counter&
batchFallbacks()
{
    static telemetry::Counter& c =
        telemetry::counter("robust.batch_fallbacks");
    return c;
}

/**
 * Scratch for verify repairs and batch fallbacks. Unbounded and apart
 * from every engine's own pool, so a recomputation never waits on a
 * bounded (service) pool whose leases the failing op may be holding.
 * Repairs run under robust::ScopedFaultFree, which also silences this
 * pool's acquire point.
 */
ntt::NegacyclicWorkspacePool&
repairWorkspaces()
{
    static ntt::NegacyclicWorkspacePool pool;
    return pool;
}

/**
 * The one check-and-repair step of every checked channel op: run
 * @p passes on the finished channel; on a mismatch rerun @p body — the
 * op's own channel body — on repair-pool scratch with every fault point
 * silenced, up to robust::kMaxRepairRetries times, re-checking after
 * each, then surface DataCorruption for @p op. A repair is a full
 * recomputation, so re-checking at the same cached point is sound: a
 * correct result always passes.
 */
template <typename Passes, typename Body>
void
checkAndRepair(const char* op, const Passes& passes, const Body& body)
{
    verifyChecks().add(1);
    if (passes())
        return;
    verifyFailures().add(1);
    const robust::ScopedFaultFree fault_free;
    for (uint32_t attempt = 0; attempt < robust::kMaxRepairRetries;
         ++attempt) {
        robustRetries().add(1);
        body(repairWorkspaces(), nullptr);
        if (passes()) {
            robustRepairs().add(1);
            return;
        }
    }
    robustFailures().add(1);
    robust::throwStatus(robust::StatusCode::DataCorruption,
                        std::string(op) +
                            ": a channel failed verification after every "
                            "repair retry");
}

/** checkAndRepair for one polymul channel: the Freivalds identity. */
template <typename Body>
void
checkPolymul(Backend backend, const rns::RnsBasis& basis, size_t channel,
             const ntt::NegacyclicTables& tables, const rns::RnsPolynomial& a,
             const rns::RnsPolynomial& b, const rns::RnsPolynomial& c,
             const Body& body)
{
    checkAndRepair(
        "Engine::polymulNegacyclic",
        [&] {
            return robust::checkNegacyclicPolymul(
                backend, basis.modulus(channel), tables.psi(),
                a.channel(channel).span(), b.channel(channel).span(),
                c.channel(channel).span(), robust::kEvalPointSeed);
        },
        body);
}

/**
 * The one batch fallback: run @p batched, a task's interleaved-kernel
 * body. If it fails with an injected kernel fault (FaultInjected) or a
 * non-Status exception, redo the task's work through @p per_channel on
 * repair-pool scratch with every fault point silenced, so one broken
 * tile cannot sink the whole op. Any other StatusError (cancellation,
 * corruption) is about the op, not the kernel, and propagates.
 */
template <typename Batched, typename PerChannel>
void
runBatchedOrFallBack(const Batched& batched, const PerChannel& per_channel)
{
    try {
        batched();
        return;
    } catch (const robust::StatusError& e) {
        if (e.status().code() != robust::StatusCode::FaultInjected)
            throw;
    } catch (const std::exception&) {
    }
    batchFallbacks().add(1);
    const robust::ScopedFaultFree fault_free;
    per_channel(repairWorkspaces(), nullptr);
}

} // namespace

Engine::Engine(EngineOptions options)
    : backend_(requireAvailable(options.backend)), verify_(options.verify),
      pool_(options.threads), workspaces_(options.max_workspaces)
{
}

bool
Engine::shouldVerify(uint64_t seq) const
{
    switch (verify_.policy) {
    case robust::VerifyPolicy::Off:
        return false;
    case robust::VerifyPolicy::Always:
        return true;
    case robust::VerifyPolicy::Sample:
        return verify_.sample_period <= 1 ||
               seq % verify_.sample_period == 0;
    }
    return false;
}

void
Engine::addInto(const rns::RnsPolynomial& a, const rns::RnsPolynomial& b,
                rns::RnsPolynomial& c, const robust::CancelToken* cancel)
{
    MQX_SCOPED_SPAN(op_span, "engine.add");
    if (cancel)
        cancel->checkpoint("Engine::add");
    rns::detail::checkCompatible(a.basis(), a, b, "Engine::add");
    rns::detail::checkForm(b, a.form(), "Engine::add");
    const rns::RnsBasis& basis = a.basis();
    rns::detail::checkDest(c, basis, a.n(), a.form(), "Engine::addInto");
    const uint64_t seq = op_seq_.fetch_add(1, std::memory_order_relaxed);
    // The guard digest only holds for out-of-place sums: with c aliasing
    // an operand the inputs are gone by check time.
    const bool check = verify_.guard_digest && shouldVerify(seq) &&
                       &c != &a && &c != &b;
    pool_.parallelFor(
        0, basis.size(),
        [&](size_t i) {
            auto body = [&](ntt::NegacyclicWorkspacePool&,
                            const robust::CancelToken*) {
                rns::detail::addChannel(backend_, basis, i, a, b, c);
            };
            body(workspaces_, cancel);
            if (check) {
                checkAndRepair(
                    "Engine::add",
                    [&] {
                        return robust::checkAddDigest(
                            basis.modulus(i), a.channel(i).span(),
                            b.channel(i).span(), c.channel(i).span());
                    },
                    body);
            }
        },
        cancel);
}

rns::RnsPolynomial
Engine::add(const rns::RnsPolynomial& a, const rns::RnsPolynomial& b)
{
    // Construct-and-delegate: addInto re-validates the operands before
    // any channel work, so no checks are duplicated here (same pattern
    // for every value-returning form below).
    rns::RnsPolynomial c(a.basis(), a.n(), a.form());
    addInto(a, b, c);
    return c;
}

void
Engine::mulInto(const rns::RnsPolynomial& a, const rns::RnsPolynomial& b,
                rns::RnsPolynomial& c, const robust::CancelToken* cancel)
{
    MQX_SCOPED_SPAN(op_span, "engine.mul");
    if (cancel)
        cancel->checkpoint("Engine::mul");
    rns::detail::checkCompatible(a.basis(), a, b, "Engine::mul");
    rns::detail::checkForm(b, a.form(), "Engine::mul");
    const rns::RnsBasis& basis = a.basis();
    rns::detail::checkDest(c, basis, a.n(), a.form(), "Engine::mulInto");
    pool_.parallelFor(
        0, basis.size(),
        [&](size_t i) {
            rns::detail::mulChannel(backend_, basis, i, a, b, c);
        },
        cancel);
}

rns::RnsPolynomial
Engine::mul(const rns::RnsPolynomial& a, const rns::RnsPolynomial& b)
{
    rns::RnsPolynomial c(a.basis(), a.n(), a.form());
    mulInto(a, b, c);
    return c;
}

void
Engine::polymulNegacyclicInto(const rns::RnsPolynomial& a,
                              const rns::RnsPolynomial& b,
                              rns::RnsPolynomial& c,
                              const robust::CancelToken* cancel)
{
    MQX_SCOPED_SPAN(op_span, "engine.polymul");
    if (cancel)
        cancel->checkpoint("Engine::polymulNegacyclic");
    rns::detail::checkCompatible(a.basis(), a, b,
                                 "Engine::polymulNegacyclic");
    rns::detail::checkForm(a, rns::Form::Coeff, "Engine::polymulNegacyclic");
    rns::detail::checkForm(b, rns::Form::Coeff, "Engine::polymulNegacyclic");
    const rns::RnsBasis& basis = a.basis();
    rns::detail::checkDest(c, basis, a.n(), rns::Form::Coeff,
                           "Engine::polymulNegacyclicInto");
    const uint64_t seq = op_seq_.fetch_add(1, std::memory_order_relaxed);
    // Freivalds needs the operands intact after the product, so skip
    // the check when the destination aliases one.
    const bool check = shouldVerify(seq) && &c != &a && &c != &b;
    pool_.parallelFor(
        0, basis.size(),
        [&](size_t i) {
            auto tables = plan_cache_.getNegacyclic(basis.prime(i), a.n());
            auto body = [&](ntt::NegacyclicWorkspacePool& ws,
                            const robust::CancelToken* token) {
                rns::detail::polymulChannel(backend_, basis, i, tables, ws, a,
                                            b, c, token);
            };
            body(workspaces_, cancel);
            if (check)
                checkPolymul(backend_, basis, i, *tables, a, b, c, body);
        },
        cancel);
}

rns::RnsPolynomial
Engine::polymulNegacyclic(const rns::RnsPolynomial& a,
                          const rns::RnsPolynomial& b)
{
    rns::RnsPolynomial c(a.basis(), a.n());
    polymulNegacyclicInto(a, b, c);
    return c;
}

void
Engine::toEvalInto(const rns::RnsPolynomial& a, rns::RnsPolynomial& c,
                   const robust::CancelToken* cancel)
{
    MQX_SCOPED_SPAN(op_span, "engine.to_eval");
    if (cancel)
        cancel->checkpoint("Engine::toEval");
    rns::detail::checkForm(a, rns::Form::Coeff, "Engine::toEval");
    const rns::RnsBasis& basis = a.basis();
    rns::detail::checkDest(c, basis, a.n(), rns::Form::Eval,
                           "Engine::toEvalInto");
    pool_.parallelFor(
        0, basis.size(),
        [&](size_t i) {
            rns::detail::toEvalChannel(
                backend_, basis, i,
                plan_cache_.getNegacyclic(basis.prime(i), a.n()), workspaces_,
                a, c, cancel);
        },
        cancel);
}

rns::RnsPolynomial
Engine::toEval(const rns::RnsPolynomial& a)
{
    rns::RnsPolynomial c(a.basis(), a.n(), rns::Form::Eval);
    toEvalInto(a, c);
    return c;
}

void
Engine::toCoeffInto(const rns::RnsPolynomial& a, rns::RnsPolynomial& c,
                    const robust::CancelToken* cancel)
{
    MQX_SCOPED_SPAN(op_span, "engine.to_coeff");
    if (cancel)
        cancel->checkpoint("Engine::toCoeff");
    rns::detail::checkForm(a, rns::Form::Eval, "Engine::toCoeff");
    const rns::RnsBasis& basis = a.basis();
    rns::detail::checkDest(c, basis, a.n(), rns::Form::Coeff,
                           "Engine::toCoeffInto");
    pool_.parallelFor(
        0, basis.size(),
        [&](size_t i) {
            rns::detail::toCoeffChannel(
                backend_, basis, i,
                plan_cache_.getNegacyclic(basis.prime(i), a.n()), workspaces_,
                a, c, cancel);
        },
        cancel);
}

rns::RnsPolynomial
Engine::toCoeff(const rns::RnsPolynomial& a)
{
    rns::RnsPolynomial c(a.basis(), a.n(), rns::Form::Coeff);
    toCoeffInto(a, c);
    return c;
}

void
Engine::mulEvalInto(const rns::RnsPolynomial& a, const rns::RnsPolynomial& b,
                    rns::RnsPolynomial& c, const robust::CancelToken* cancel)
{
    MQX_SCOPED_SPAN(op_span, "engine.mul_eval");
    if (cancel)
        cancel->checkpoint("Engine::mulEval");
    rns::detail::checkCompatible(a.basis(), a, b, "Engine::mulEval");
    rns::detail::checkForm(a, rns::Form::Eval, "Engine::mulEval");
    rns::detail::checkForm(b, rns::Form::Eval, "Engine::mulEval");
    const rns::RnsBasis& basis = a.basis();
    rns::detail::checkDest(c, basis, a.n(), rns::Form::Eval,
                           "Engine::mulEvalInto");
    pool_.parallelFor(
        0, basis.size(),
        [&](size_t i) {
            rns::detail::mulChannel(backend_, basis, i, a, b, c);
        },
        cancel);
}

rns::RnsPolynomial
Engine::mulEval(const rns::RnsPolynomial& a, const rns::RnsPolynomial& b)
{
    rns::RnsPolynomial c(a.basis(), a.n(), rns::Form::Eval);
    mulEvalInto(a, b, c);
    return c;
}

void
Engine::fmaBatchInto(
    const std::vector<std::pair<const rns::RnsPolynomial*,
                                const rns::RnsPolynomial*>>& products,
    rns::RnsPolynomial& c, const robust::CancelToken* cancel)
{
    MQX_SCOPED_SPAN(op_span, "engine.fma_batch");
    if (cancel)
        cancel->checkpoint("Engine::fmaBatch");
    checkArg(!products.empty(), "Engine::fmaBatch: empty batch");
    for (const auto& [a, b] : products) {
        checkArg(a != nullptr && b != nullptr,
                 "Engine::fmaBatch: null operand");
    }
    const rns::RnsPolynomial& first = *products.front().first;
    for (const auto& [a, b] : products) {
        rns::detail::checkCompatible(first.basis(), *a, *b,
                                     "Engine::fmaBatch");
        checkArg(a->n() == first.n(),
                 "Engine::fmaBatch: length mismatch across batch");
    }
    const rns::RnsBasis& basis = first.basis();
    rns::detail::checkDest(c, basis, first.n(), rns::Form::Coeff,
                           "Engine::fmaBatchInto");
    // The interleaved batch kernels run where they beat the per-channel
    // path (ntt::fmaBatchKernelsWin) and are eligible: enough all-Coeff
    // products to fill at least one channel-major tile, on a
    // batch-capable plan shape (n >= 16 — shared by every channel since
    // n is uniform).
    const size_t il = ntt::batchInterleave(backend_);
    bool all_coeff = true;
    bool aliased = false;
    for (const auto& [a, b] : products) {
        all_coeff = all_coeff && a->form() == rns::Form::Coeff &&
                    b->form() == rns::Form::Coeff;
        aliased = aliased || a == &c || b == &c;
    }
    const bool batched =
        ntt::fmaBatchKernelsWin(backend_) && all_coeff &&
        products.size() >= il &&
        ntt::batchSupported(
            plan_cache_.getNegacyclic(basis.prime(0), first.n())->plan());
    const uint64_t seq = op_seq_.fetch_add(1, std::memory_order_relaxed);
    // The Freivalds dot-product identity evaluates the Coeff operands
    // at the check point, so it needs an all-Coeff, non-aliased batch.
    const bool check = shouldVerify(seq) && all_coeff && !aliased;
    pool_.parallelFor(
        0, basis.size(),
        [&](size_t i) {
            auto tables =
                plan_cache_.getNegacyclic(basis.prime(i), first.n());
            auto body = [&](ntt::NegacyclicWorkspacePool& ws,
                            const robust::CancelToken* token) {
                rns::detail::fmaChannel(backend_, basis, i, tables, ws,
                                        products, c, token);
            };
            if (batched) {
                runBatchedOrFallBack(
                    [&] {
                        rns::detail::fmaChannelBatched(
                            backend_, basis, i, tables, workspaces_, products,
                            il, c, cancel);
                    },
                    body);
            } else {
                body(workspaces_, cancel);
            }
            if (!check)
                return;
            std::vector<std::pair<DConstSpan, DConstSpan>> spans;
            spans.reserve(products.size());
            for (const auto& [pa, pb] : products)
                spans.emplace_back(pa->channel(i).span(),
                                   pb->channel(i).span());
            checkAndRepair(
                "Engine::fmaBatch",
                [&] {
                    return robust::checkNegacyclicFma(
                        backend_, basis.modulus(i), tables->psi(), spans,
                        c.channel(i).span(), robust::kEvalPointSeed);
                },
                body);
        },
        cancel);
}

rns::RnsPolynomial
Engine::fmaBatch(
    const std::vector<std::pair<const rns::RnsPolynomial*,
                                const rns::RnsPolynomial*>>& products)
{
    // Only the checks needed to construct the destination; fmaBatchInto
    // re-validates the whole batch.
    checkArg(!products.empty(), "Engine::fmaBatch: empty batch");
    checkArg(products.front().first != nullptr,
             "Engine::fmaBatch: null operand");
    const rns::RnsPolynomial& first = *products.front().first;
    rns::RnsPolynomial c(first.basis(), first.n());
    fmaBatchInto(products, c);
    return c;
}

std::vector<rns::RnsPolynomial>
Engine::polymulNegacyclicBatch(
    const std::vector<std::pair<const rns::RnsPolynomial*,
                                const rns::RnsPolynomial*>>& products,
    const robust::CancelToken* cancel)
{
    MQX_SCOPED_SPAN(op_span, "engine.polymul_batch");
    if (cancel)
        cancel->checkpoint("Engine::polymulNegacyclicBatch");
    // Validate everything and lay out results before dispatch.
    std::vector<rns::RnsPolynomial> results;
    results.reserve(products.size());
    size_t total_channels = 0;
    for (size_t p = 0; p < products.size(); ++p) {
        const auto& [a, b] = products[p];
        checkArg(a != nullptr && b != nullptr,
                 "Engine::polymulNegacyclicBatch: null operand");
        rns::detail::checkCompatible(a->basis(), *a, *b,
                                     "Engine::polymulNegacyclicBatch");
        rns::detail::checkForm(*a, rns::Form::Coeff,
                               "Engine::polymulNegacyclicBatch");
        rns::detail::checkForm(*b, rns::Form::Coeff,
                               "Engine::polymulNegacyclicBatch");
        results.emplace_back(a->basis(), a->n());
        total_channels += a->basis().size();
    }
    if (products.empty())
        return results;
    // One sequence draw covers the whole batch: destinations are
    // freshly constructed above, so aliasing can't occur.
    const uint64_t seq = op_seq_.fetch_add(1, std::memory_order_relaxed);
    const bool check = shouldVerify(seq);

    // One flat, channel-major task list keeps the pool saturated when
    // operands have fewer channels than there are threads. A task is
    // `lanes` consecutive products on one channel: il for the whole
    // tiles of a uniform batch (one basis, one length) of at least il
    // products on a batch-capable plan shape, which run the interleaved
    // kernels once per tile; 1 for every other product.
    const rns::RnsPolynomial& first = *products.front().first;
    const size_t il = ntt::batchInterleave(backend_);
    bool uniform = true;
    size_t max_channels = 0;
    for (const auto& [a, b] : products) {
        uniform = uniform && &a->basis() == &first.basis() &&
                  a->n() == first.n();
        max_channels = std::max(max_channels, a->basis().size());
    }
    const bool tileable =
        uniform && products.size() >= il &&
        ntt::batchSupported(
            plan_cache_.getNegacyclic(first.basis().prime(0), first.n())
                ->plan());
    const size_t tiled = tileable ? products.size() / il * il : 0;
    struct Task
    {
        size_t p0, channel, lanes;
    };
    std::vector<Task> tasks;
    tasks.reserve(total_channels);
    for (size_t channel = 0; channel < max_channels; ++channel) {
        for (size_t p = 0; p < products.size();) {
            const size_t lanes = p < tiled ? il : 1;
            if (channel < products[p].first->basis().size())
                tasks.push_back({p, channel, lanes});
            p += lanes;
        }
    }

    pool_.parallelFor(
        0, tasks.size(),
        [&](size_t t) {
            const Task& task = tasks[t];
            const size_t p0 = task.p0;
            const size_t channel = task.channel;
            const rns::RnsBasis& basis = products[p0].first->basis();
            auto tables = plan_cache_.getNegacyclic(basis.prime(channel),
                                                    results[p0].n());
            // The per-channel body over products [begin, end).
            auto perChannel = [&](size_t begin, size_t end) {
                return [&, begin, end](ntt::NegacyclicWorkspacePool& ws,
                                       const robust::CancelToken* token) {
                    for (size_t p = begin; p < end; ++p) {
                        rns::detail::polymulChannel(
                            backend_, basis, channel, tables, ws,
                            *products[p].first, *products[p].second,
                            results[p], token);
                    }
                };
            };
            const size_t end = p0 + task.lanes;
            if (task.lanes > 1) {
                runBatchedOrFallBack(
                    [&] {
                        rns::detail::polymulChannelBatch(
                            backend_, basis, channel, tables, products, p0,
                            task.lanes, results, cancel);
                    },
                    perChannel(p0, end));
            } else {
                perChannel(p0, end)(workspaces_, cancel);
            }
            if (!check)
                return;
            for (size_t p = p0; p < end; ++p) {
                checkPolymul(backend_, basis, channel, *tables,
                             *products[p].first, *products[p].second,
                             results[p], perChannel(p, p + 1));
            }
        },
        cancel);
    return results;
}

} // namespace engine
} // namespace mqx
