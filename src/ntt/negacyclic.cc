/**
 * @file
 * Negacyclic NTT implementation.
 */
#include "ntt/negacyclic.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "blas/blas.h"
#include "ntt/reference_ntt.h"
#include "robust/cancel.h"
#include "robust/fault_injection.h"
#include "telemetry/telemetry.h"

namespace mqx {
namespace ntt {

NegacyclicEngine::NegacyclicEngine(const NttPrime& prime, size_t n,
                                   Backend backend)
    : NegacyclicEngine(std::make_shared<const NegacyclicTables>(prime, n),
                       backend)
{
}

namespace {

std::shared_ptr<const NegacyclicTables>
requireTables(std::shared_ptr<const NegacyclicTables> tables)
{
    checkArg(tables != nullptr, "NegacyclicEngine: null tables");
    return tables;
}

/**
 * Shared span validation: both views must be exactly n long, and an
 * input may alias the output only exactly (in == out); a partial
 * overlap would make the kernels read half-written data.
 */
void
checkSpans(DConstSpan in, DConstSpan out, size_t n, const char* what)
{
    if (in.n != n || out.n != n)
        throw InvalidArgument(std::string(what) + ": size mismatch");
    if (spansPartiallyOverlap(in, out)) {
        throw InvalidArgument(std::string(what) +
                              ": partially overlapping spans");
    }
}

} // namespace

NegacyclicTables::NegacyclicTables(const Modulus& modulus, size_t n)
    : plan_(std::make_unique<const NttPlan>(modulus, n)), w_(n), w_shoup_(n)
{
    const int logn = plan_->logn();
    const Modulus& m = plan_->modulus();
    // psi: primitive 2n-th root with psi^2 == omega. r has order 2n and
    // r^2 order n, so omega = (r^2)^t for some t coprime to n; then
    // psi = r^t satisfies psi^2 = omega and has order 2n (t odd).
    U128 r = rootOfUnity(m, U128{static_cast<uint64_t>(2 * n)});
    const U128 g_inv = m.inverse(m.mul(r, r));
    // t = log_{r^2}(omega) by Pohlig-Hellman over the order 2^logn, one
    // bit per round: with h = omega * (r^2)^-(t mod 2^i), the power
    // h^(2^(logn-1-i)) is 1 when bit i of t is clear and -1 when set.
    U128 h = plan_->omega();
    U128 g_inv_2i = g_inv; // (r^2)^-(2^i)
    uint64_t t = 0;
    for (int i = 0; i < logn; ++i) {
        U128 x = h;
        for (int k = i + 1; k < logn; ++k)
            x = m.mul(x, x);
        if (x != U128{1}) {
            checkArg(x == m.sub(U128{0}, U128{1}),
                     "NegacyclicTables: omega not in <r^2> (internal)");
            t |= uint64_t{1} << i;
            h = m.mul(h, g_inv_2i);
        }
        g_inv_2i = m.mul(g_inv_2i, g_inv_2i);
    }
    checkArg(h == U128{1}, "NegacyclicTables: omega not in <r^2> (internal)");
    // omega has order exactly n, so gcd(t, n) == 1 and t is odd; an even
    // t means a broken root search whose psi would have order below 2n
    // (which the psi^2 == omega check below cannot see).
    checkArg((t & 1) != 0, "NegacyclicTables: omega = r^(2t) with t even "
                           "(internal)");
    psi_ = m.pow(r, U128{t});
    checkArg(m.mul(psi_, psi_) == plan_->omega(),
             "NegacyclicTables: psi^2 != omega (internal)");

    // One running power of psi: entry brev(e) is psi^e.
    U128 p{1};
    for (size_t e = 0; e < n; ++e) {
        w_.set(bitReverseIndex(e, logn), p);
        p = m.mul(p, psi_);
    }
    for (size_t k = 0; k < n; ++k)
        w_shoup_.set(k, m.shoupCompanion(w_.at(k)));
    // psi^-(n/2) = -psi^(n/2) = -(entry 1), since psi^n = -1.
    last_diff_ = m.mul(m.sub(U128{0}, w_.at(1)), plan_->nInv());
    last_diff_shoup_ = m.shoupCompanion(last_diff_);
}

NegacyclicEngine::NegacyclicEngine(const NttPrime& prime, size_t n)
    : NegacyclicEngine(prime, n, bestBackend())
{
}

NegacyclicEngine::NegacyclicEngine(
    std::shared_ptr<const NegacyclicTables> tables, Backend backend)
    : tables_(requireTables(std::move(tables))), backend_(backend),
      buf_a_(tables_->plan().n()), buf_b_(tables_->plan().n()),
      buf_c_(tables_->plan().n()), scratch_(tables_->plan().n())
{
}

void
NegacyclicEngine::rebind(std::shared_ptr<const NegacyclicTables> tables,
                         Backend backend)
{
    tables_ = requireTables(std::move(tables));
    backend_ = backend;
    const size_t n = tables_->plan().n();
    buf_a_.ensure(n);
    buf_b_.ensure(n);
    buf_c_.ensure(n);
    scratch_.ensure(n);
    // aux_ stays as-is: auxBuffer() re-sizes lazily on next use.
}

ResidueVector&
NegacyclicEngine::auxBuffer(size_t slot)
{
    checkArg(slot < aux_.size(), "NegacyclicEngine::auxBuffer: bad slot");
    aux_[slot].ensure(tables_->plan().n());
    return aux_[slot];
}

namespace {

/**
 * The merged kernels ping-pong out of place, so an input that IS the
 * output is staged into @p stage first; any other input passes through.
 */
DConstSpan
stageAliasedInput(DConstSpan in, DConstSpan out, ResidueVector& stage)
{
    if (!sameSpan(in, out))
        return in;
    DSpan s = stage.span();
    std::copy_n(in.hi, in.n, s.hi);
    std::copy_n(in.lo, in.n, s.lo);
    return s;
}

} // namespace

void
NegacyclicEngine::forward(DConstSpan in, DSpan out)
{
    MQX_SCOPED_SPAN(op_span, "negacyclic.forward");
    checkSpans(in, out, tables_->plan().n(), "NegacyclicEngine::forward");
    negacyclicForward(*tables_, backend_, stageAliasedInput(in, out, buf_a_),
                      out, scratch_.span());
}

void
NegacyclicEngine::inverse(DConstSpan in, DSpan out)
{
    MQX_SCOPED_SPAN(op_span, "negacyclic.inverse");
    checkSpans(in, out, tables_->plan().n(), "NegacyclicEngine::inverse");
    negacyclicInverse(*tables_, backend_, stageAliasedInput(in, out, buf_a_),
                      out, scratch_.span());
}

void
NegacyclicEngine::pointwiseMul(DConstSpan f_eval, DConstSpan g_eval,
                               DSpan out)
{
    MQX_SCOPED_SPAN(op_span, "negacyclic.pointwise");
    const NttPlan& plan = tables_->plan();
    checkSpans(f_eval, out, plan.n(), "NegacyclicEngine::pointwiseMul");
    checkSpans(g_eval, out, plan.n(), "NegacyclicEngine::pointwiseMul");
    // Every backend loads a block before storing it, so out may alias
    // either input exactly.
    blas::vmul(backend_, plan.modulus(), f_eval, g_eval, out);
}

void
NegacyclicEngine::pointwiseAccumulate(DSpan acc, DConstSpan f_eval,
                                      DConstSpan g_eval)
{
    MQX_SCOPED_SPAN(op_span, "negacyclic.pointwise_acc");
    const NttPlan& plan = tables_->plan();
    checkSpans(f_eval, acc, plan.n(), "NegacyclicEngine::pointwiseAccumulate");
    checkSpans(g_eval, acc, plan.n(), "NegacyclicEngine::pointwiseAccumulate");
    blas::vdot(backend_, plan.modulus(), &f_eval, &g_eval, 1, acc);
}

void
NegacyclicEngine::polymul(DConstSpan f, DConstSpan g, DSpan out,
                          const robust::CancelToken* cancel)
{
    MQX_SCOPED_SPAN(op_span, "negacyclic.polymul");
    const NttPlan& plan = tables_->plan();
    checkSpans(f, out, plan.n(), "NegacyclicEngine::polymul");
    checkSpans(g, out, plan.n(), "NegacyclicEngine::polymul");
    if (cancel)
        cancel->checkpoint("negacyclic.polymul.forward");
    forward(f, buf_b_.span());
    forward(g, buf_c_.span());
    if (cancel)
        cancel->checkpoint("negacyclic.polymul.pointwise");
    // Point-wise product in place over buf_b_ (exact alias).
    blas::vmul(backend_, plan.modulus(), buf_b_.span(), buf_c_.span(),
               buf_b_.span());
    if (cancel)
        cancel->checkpoint("negacyclic.polymul.inverse");
    inverse(buf_b_.span(), out);
}

std::vector<U128>
NegacyclicEngine::forward(const std::vector<U128>& input)
{
    checkArg(input.size() == tables_->plan().n(),
             "NegacyclicEngine::forward: size mismatch");
    ResidueVector in = ResidueVector::fromU128(input);
    forward(in.span(), in.span()); // in-place: exact alias is legal
    return in.toU128();
}

std::vector<U128>
NegacyclicEngine::inverse(const std::vector<U128>& input)
{
    checkArg(input.size() == tables_->plan().n(),
             "NegacyclicEngine::inverse: size mismatch");
    ResidueVector in = ResidueVector::fromU128(input);
    inverse(in.span(), in.span());
    return in.toU128();
}

std::vector<U128>
NegacyclicEngine::pointwiseMul(const std::vector<U128>& f_eval,
                               const std::vector<U128>& g_eval)
{
    checkArg(f_eval.size() == tables_->plan().n() &&
                 g_eval.size() == tables_->plan().n(),
             "NegacyclicEngine::pointwiseMul: size mismatch");
    ResidueVector ta = ResidueVector::fromU128(f_eval);
    ResidueVector tb = ResidueVector::fromU128(g_eval);
    pointwiseMul(ta.span(), tb.span(), ta.span());
    return ta.toU128();
}

void
NegacyclicEngine::pointwiseAccumulate(ResidueVector& acc,
                                      const std::vector<U128>& f_eval,
                                      const std::vector<U128>& g_eval)
{
    checkArg(f_eval.size() == tables_->plan().n() &&
                 g_eval.size() == tables_->plan().n(),
             "NegacyclicEngine::pointwiseAccumulate: size mismatch");
    ResidueVector ta = ResidueVector::fromU128(f_eval);
    ResidueVector tb = ResidueVector::fromU128(g_eval);
    pointwiseAccumulate(acc.span(), ta.span(), tb.span());
}

std::vector<U128>
NegacyclicEngine::polymulNegacyclic(const std::vector<U128>& f,
                                    const std::vector<U128>& g)
{
    checkArg(f.size() == tables_->plan().n() &&
                 g.size() == tables_->plan().n(),
             "NegacyclicEngine::polymulNegacyclic: size mismatch");
    ResidueVector tf = ResidueVector::fromU128(f);
    ResidueVector tg = ResidueVector::fromU128(g);
    polymul(tf.span(), tg.span(), tf.span());
    return tf.toU128();
}

NegacyclicWorkspacePool::Lease::~Lease()
{
    if (pool_ && engine_)
        pool_->release(std::move(engine_));
}

NegacyclicWorkspacePool::Lease
NegacyclicWorkspacePool::acquire(
    std::shared_ptr<const NegacyclicTables> tables, Backend backend,
    const robust::CancelToken* cancel)
{
    // Before any accounting: an injected acquire failure must leave
    // leasedCount() untouched, or the balance tests would blame the
    // pool for a lease that never existed.
    MQX_FAULT_POINT("workspace_pool.acquire");
    std::unique_ptr<NegacyclicEngine> engine;
    bool fresh = false;
    {
        std::unique_lock<std::mutex> lock(mutex_);
        for (;;) {
            if (!free_.empty()) {
                engine = std::move(free_.back());
                free_.pop_back();
                break;
            }
            if (max_workspaces_ == 0 || live_ < max_workspaces_) {
                ++live_; // claim the slot before unlocking to construct
                fresh = true;
                break;
            }
            // Saturated: wait for a lease to return. Poll the token at
            // 1 ms so a cancellation/deadline that lands mid-wait
            // unblocks promptly instead of when the pool next drains.
            if (cancel) {
                cancel->checkpoint("workspace_pool.acquire");
                available_cv_.wait_for(lock, std::chrono::milliseconds(1));
            } else {
                available_cv_.wait(lock);
            }
        }
    }
    if (fresh) {
        try {
            engine = std::make_unique<NegacyclicEngine>(std::move(tables),
                                                        backend);
        } catch (...) {
            std::lock_guard<std::mutex> lock(mutex_);
            --live_; // slot never materialized; let waiters retry
            available_cv_.notify_one();
            throw;
        }
    } else {
        engine->rebind(std::move(tables), backend);
    }
    leased_.fetch_add(1, std::memory_order_acq_rel);
    total_leases_.fetch_add(1, std::memory_order_relaxed);
    return Lease(this, std::move(engine));
}

size_t
NegacyclicWorkspacePool::idleCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return free_.size();
}

void
NegacyclicWorkspacePool::release(std::unique_ptr<NegacyclicEngine> engine)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        free_.push_back(std::move(engine));
    }
    leased_.fetch_sub(1, std::memory_order_acq_rel);
    available_cv_.notify_one();
}

void
negacyclicConvolutionInto(const Modulus& modulus, const std::vector<U128>& f,
                          const std::vector<U128>& g, std::vector<U128>& out,
                          std::vector<U128>& full_scratch)
{
    checkArg(f.size() == g.size() && !f.empty(),
             "negacyclicConvolution: length mismatch");
    checkArg(&out != &full_scratch && &out != &f && &out != &g &&
                 &full_scratch != &f && &full_scratch != &g,
             "negacyclicConvolutionInto: aliased output/scratch");
    size_t n = f.size();
    // assign() reuses the scratch's capacity across calls — a caller
    // looping over channels/trials no longer grows a fresh 2n-1 product
    // vector per iteration.
    schoolbookPolyMulInto(modulus, f, g, full_scratch);
    out.assign(n, U128{0});
    for (size_t i = 0; i < full_scratch.size(); ++i) {
        if (i < n)
            out[i] = modulus.add(out[i], full_scratch[i]);
        else
            out[i - n] = modulus.sub(out[i - n], full_scratch[i]); // x^n = -1
    }
}

std::vector<U128>
negacyclicConvolution(const Modulus& modulus, const std::vector<U128>& f,
                      const std::vector<U128>& g)
{
    std::vector<U128> out, full;
    negacyclicConvolutionInto(modulus, f, g, out, full);
    return out;
}

} // namespace ntt
} // namespace mqx
