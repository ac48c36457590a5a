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
    checkArg(backendAvailable(backend), "Engine: backend unavailable");
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
 * Whether a StatusError escaping a batch kernel should propagate
 * instead of falling back to the per-channel path: cancellation and
 * corruption verdicts are about the op, not the kernel, and must reach
 * the caller. An injected kernel fault (FaultInjected) is exactly the
 * failure the fallback exists for.
 */
bool
propagateFromBatchKernel(const robust::StatusError& e)
{
    return e.status().code() != robust::StatusCode::FaultInjected;
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
Engine::verifyRepairPolymul(
    const rns::RnsBasis& basis, size_t channel,
    const std::shared_ptr<const ntt::NegacyclicTables>& tables,
    const rns::RnsPolynomial& a, const rns::RnsPolynomial& b,
    rns::RnsPolynomial& c)
{
    const Modulus& m = basis.modulus(channel);
    verifyChecks().add(1);
    if (robust::checkNegacyclicPolymul(
            backend_, m, tables->psi(), a.channel(channel).span(),
            b.channel(channel).span(), c.channel(channel).span(),
            verify_.seed))
        return;
    verifyFailures().add(1);
    // The channel failed the evaluation identity: recompute it with
    // every fault point silenced and scratch from the repair pool, then
    // re-check. The repair is a full recomputation, so re-checking at
    // the same cached point is sound — a correct product always passes.
    const robust::ScopedFaultFree fault_free;
    for (size_t attempt = 0; attempt < verify_.max_retries; ++attempt) {
        robustRetries().add(1);
        rns::detail::polymulChannel(backend_, basis, channel, tables,
                                    repairWorkspaces(), a, b, c);
        if (robust::checkNegacyclicPolymul(
                backend_, m, tables->psi(), a.channel(channel).span(),
                b.channel(channel).span(), c.channel(channel).span(),
                verify_.seed)) {
            robustRepairs().add(1);
            return;
        }
    }
    robustFailures().add(1);
    robust::throwStatus(
        robust::StatusCode::DataCorruption,
        "Engine::polymulNegacyclic: a channel failed Freivalds "
        "verification after every repair retry");
}

void
Engine::verifyRepairFma(
    const rns::RnsBasis& basis, size_t channel,
    const std::shared_ptr<const ntt::NegacyclicTables>& tables,
    const std::vector<std::pair<const rns::RnsPolynomial*,
                                const rns::RnsPolynomial*>>& products,
    rns::RnsPolynomial& c)
{
    const Modulus& m = basis.modulus(channel);
    std::vector<std::pair<DConstSpan, DConstSpan>> spans;
    spans.reserve(products.size());
    for (const auto& [a, b] : products) {
        spans.emplace_back(a->channel(channel).span(),
                           b->channel(channel).span());
    }
    verifyChecks().add(1);
    if (robust::checkNegacyclicFma(backend_, m, tables->psi(), spans,
                                   c.channel(channel).span(), verify_.seed))
        return;
    verifyFailures().add(1);
    const robust::ScopedFaultFree fault_free;
    for (size_t attempt = 0; attempt < verify_.max_retries; ++attempt) {
        robustRetries().add(1);
        rns::detail::fmaChannel(backend_, basis, channel, tables,
                                repairWorkspaces(), products, c);
        if (robust::checkNegacyclicFma(backend_, m, tables->psi(), spans,
                                       c.channel(channel).span(),
                                       verify_.seed)) {
            robustRepairs().add(1);
            return;
        }
    }
    robustFailures().add(1);
    robust::throwStatus(robust::StatusCode::DataCorruption,
                        "Engine::fmaBatch: a channel failed Freivalds "
                        "verification after every repair retry");
}

void
Engine::verifyRepairAdd(const rns::RnsBasis& basis, size_t channel,
                        const rns::RnsPolynomial& a,
                        const rns::RnsPolynomial& b, rns::RnsPolynomial& c)
{
    const Modulus& m = basis.modulus(channel);
    verifyChecks().add(1);
    if (robust::checkAddDigest(m, a.channel(channel).span(),
                               b.channel(channel).span(),
                               c.channel(channel).span()))
        return;
    verifyFailures().add(1);
    const robust::ScopedFaultFree fault_free;
    for (size_t attempt = 0; attempt < verify_.max_retries; ++attempt) {
        robustRetries().add(1);
        rns::detail::addChannel(backend_, basis, channel, a, b, c);
        if (robust::checkAddDigest(m, a.channel(channel).span(),
                                   b.channel(channel).span(),
                                   c.channel(channel).span())) {
            robustRepairs().add(1);
            return;
        }
    }
    robustFailures().add(1);
    robust::throwStatus(robust::StatusCode::DataCorruption,
                        "Engine::add: a channel failed the guard digest "
                        "after every repair retry");
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
            rns::detail::addChannel(backend_, basis, i, a, b, c);
            if (check)
                verifyRepairAdd(basis, i, a, b, c);
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
            rns::detail::polymulChannel(backend_, basis, i, tables,
                                        workspaces_, a, b, c, cancel);
            if (check)
                verifyRepairPolymul(basis, i, tables, a, b, c);
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
                a, c);
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
                a, c);
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
    // Interleaved-batch eligibility: enough all-Coeff products to fill
    // at least one channel-major tile, on a batch-capable plan shape
    // (n >= 16 — shared by every channel since n is uniform).
    const size_t il = ntt::batchInterleave(backend_);
    bool all_coeff = true;
    bool aliased = false;
    for (const auto& [a, b] : products) {
        all_coeff = all_coeff && a->form() == rns::Form::Coeff &&
                    b->form() == rns::Form::Coeff;
        aliased = aliased || a == &c || b == &c;
    }
    const bool batched =
        all_coeff && products.size() >= il &&
        ntt::batchSupported(
            plan_cache_.getNegacyclic(basis.prime(0), first.n())->plan());
    const uint64_t seq = op_seq_.fetch_add(1, std::memory_order_relaxed);
    // The Freivalds dot-product identity evaluates the Coeff operands
    // at the check point, so it needs an all-Coeff, non-aliased batch.
    const bool check = shouldVerify(seq) && all_coeff && !aliased;
    auto redoChannel =
        [&](size_t i,
            const std::shared_ptr<const ntt::NegacyclicTables>& tables) {
            batchFallbacks().add(1);
            const robust::ScopedFaultFree fault_free;
            rns::detail::fmaChannel(backend_, basis, i, tables,
                                    repairWorkspaces(), products, c);
        };
    pool_.parallelFor(
        0, basis.size(),
        [&](size_t i) {
            auto tables =
                plan_cache_.getNegacyclic(basis.prime(i), first.n());
            if (batched) {
                try {
                    rns::detail::fmaChannelBatched(backend_, basis, i,
                                                   tables, workspaces_,
                                                   products, il, c, cancel);
                } catch (const robust::StatusError& e) {
                    if (propagateFromBatchKernel(e))
                        throw;
                    // Injected batch-kernel failure: recompute this
                    // channel on the per-product path, fault-free, so
                    // one broken tile can't sink the whole op.
                    redoChannel(i, tables);
                } catch (const std::exception&) {
                    redoChannel(i, tables);
                }
            } else {
                rns::detail::fmaChannel(backend_, basis, i, tables,
                                        workspaces_, products, c, cancel);
            }
            if (check)
                verifyRepairFma(basis, i, tables, products, c);
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
    // Validate everything and lay out results before dispatch; the flat
    // (product, channel) index space keeps the pool saturated when
    // operands have fewer channels than there are threads.
    std::vector<rns::RnsPolynomial> results;
    results.reserve(products.size());
    std::vector<size_t> first_task(products.size() + 1, 0);
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
        first_task[p + 1] = first_task[p] + a->basis().size();
    }
    if (products.empty())
        return results;
    // One sequence draw covers the whole batch: destinations are
    // freshly constructed above, so aliasing can't occur.
    const uint64_t seq = op_seq_.fetch_add(1, std::memory_order_relaxed);
    const bool check = shouldVerify(seq);

    // Interleaved-batch eligibility: a uniform batch (one basis, one
    // length) with at least one whole tile of il products, on a
    // batch-capable plan shape. Mixed-basis batches keep the flat
    // per-(product, channel) path below.
    const rns::RnsPolynomial& first = *products.front().first;
    const size_t il = ntt::batchInterleave(backend_);
    bool uniform = true;
    for (const auto& [a, b] : products) {
        uniform = uniform && &a->basis() == &first.basis() &&
                  a->n() == first.n();
    }
    if (uniform && products.size() >= il &&
        ntt::batchSupported(
            plan_cache_.getNegacyclic(first.basis().prime(0), first.n())
                ->plan())) {
        // Flat (channel, tile-or-remainder) task space: each whole tile
        // of il products runs the interleaved kernels once; the k % il
        // remainder products run per-channel. Still one flat
        // parallelFor — tasks never nest.
        const rns::RnsBasis& basis = first.basis();
        const size_t tiles = products.size() / il;
        const size_t rem = products.size() % il;
        const size_t per_channel = tiles + rem;
        pool_.parallelFor(
            0, basis.size() * per_channel,
            [&](size_t task) {
                const size_t channel = task / per_channel;
                const size_t slot = task % per_channel;
                auto tables = plan_cache_.getNegacyclic(
                    basis.prime(channel), first.n());
                if (slot < tiles) {
                    const size_t p0 = slot * il;
                    // Injected batch-kernel failure: redo every lane of
                    // this tile on the per-channel path, fault-free.
                    auto redoTile = [&] {
                        batchFallbacks().add(1);
                        const robust::ScopedFaultFree fault_free;
                        for (size_t p = p0; p < p0 + il; ++p) {
                            rns::detail::polymulChannel(
                                backend_, basis, channel, tables,
                                repairWorkspaces(), *products[p].first,
                                *products[p].second, results[p]);
                        }
                    };
                    try {
                        rns::detail::polymulChannelBatch(
                            backend_, basis, channel, tables, products, p0,
                            il, results);
                    } catch (const robust::StatusError& e) {
                        if (propagateFromBatchKernel(e))
                            throw;
                        redoTile();
                    } catch (const std::exception&) {
                        redoTile();
                    }
                    if (check) {
                        for (size_t p = p0; p < p0 + il; ++p) {
                            verifyRepairPolymul(basis, channel, tables,
                                                *products[p].first,
                                                *products[p].second,
                                                results[p]);
                        }
                    }
                } else {
                    const size_t p = tiles * il + (slot - tiles);
                    rns::detail::polymulChannel(
                        backend_, basis, channel, tables, workspaces_,
                        *products[p].first, *products[p].second, results[p],
                        cancel);
                    if (check)
                        verifyRepairPolymul(basis, channel, tables,
                                            *products[p].first,
                                            *products[p].second, results[p]);
                }
            },
            cancel);
        return results;
    }

    pool_.parallelFor(
        0, first_task.back(),
        [&](size_t task) {
            // Binary search for the product this flat index belongs to.
            size_t p = static_cast<size_t>(
                std::upper_bound(first_task.begin(), first_task.end(),
                                 task) -
                first_task.begin() - 1);
            size_t channel = task - first_task[p];
            const rns::RnsPolynomial& a = *products[p].first;
            const rns::RnsPolynomial& b = *products[p].second;
            auto tables =
                plan_cache_.getNegacyclic(a.basis().prime(channel), a.n());
            rns::detail::polymulChannel(backend_, a.basis(), channel, tables,
                                        workspaces_, a, b, results[p],
                                        cancel);
            if (check)
                verifyRepairPolymul(a.basis(), channel, tables, a, b,
                                    results[p]);
        },
        cancel);
    return results;
}

} // namespace engine
} // namespace mqx
