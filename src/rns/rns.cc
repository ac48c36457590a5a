/**
 * @file
 * RNS implementation: CRT machinery plus the single-channel bodies
 * engine::Engine dispatches.
 */
#include "rns/rns.h"

#include <array>

#include "bench_util/rng.h"
#include "blas/blas.h"
#include "core/batch_layout.h"
#include "robust/cancel.h"
#include "robust/fault_injection.h"
#include "telemetry/telemetry.h"

namespace mqx {
namespace rns {

RnsBasis::RnsBasis(int bits, int two_adicity, int count)
    : RnsBasis(ntt::findNttPrimes(bits, two_adicity, count))
{
}

RnsBasis::RnsBasis(std::vector<ntt::NttPrime> primes)
    : primes_(std::move(primes))
{
    checkArg(!primes_.empty(), "RnsBasis: empty basis");
    for (size_t i = 0; i < primes_.size(); ++i) {
        for (size_t j = i + 1; j < primes_.size(); ++j) {
            checkArg(primes_[i].q != primes_[j].q,
                     "RnsBasis: primes must be distinct");
        }
    }
    moduli_.reserve(primes_.size());
    for (const auto& p : primes_)
        moduli_.emplace_back(p.q);
    precompute();
}

void
RnsBasis::precompute()
{
    big_q_ = BigUInt{1};
    for (const auto& p : primes_)
        big_q_ *= BigUInt::fromU128(p.q);

    qi_big_.resize(primes_.size());
    pow2_64_mod_qi_.resize(primes_.size());
    q_over_qi_.resize(primes_.size());
    q_over_qi_inv_.resize(primes_.size());
    for (size_t i = 0; i < primes_.size(); ++i) {
        qi_big_[i] = BigUInt::fromU128(primes_[i].q);
        // 2^64 mod q_i: the per-limb radix for decomposeInto's Horner
        // fold (q_i may be smaller than 2^64, so reduce).
        pow2_64_mod_qi_[i] = moduli_[i].reduce(U128::fromParts(1, 0));
        q_over_qi_[i] = big_q_ / qi_big_[i];
        // (Q / q_i) mod q_i fits a U128; invert with Fermat.
        U128 rem = (q_over_qi_[i] % qi_big_[i]).toU128();
        q_over_qi_inv_[i] = moduli_[i].inverse(rem);
    }
}

std::vector<U128>
RnsBasis::decompose(const BigUInt& x) const
{
    std::vector<U128> out;
    decomposeInto(x, out);
    return out;
}

void
RnsBasis::decomposeInto(const BigUInt& x, std::vector<U128>& out) const
{
    checkArg(x < big_q_, "RnsBasis::decompose: value exceeds Q");
    out.resize(primes_.size());
    const size_t limbs = x.limbCount();
    for (size_t i = 0; i < primes_.size(); ++i) {
        // Horner over the 64-bit limbs, high to low:
        //   r = (r * 2^64 + limb) mod q_i
        // — word-sized Barrett arithmetic only, no BigUInt division.
        const Modulus& m = moduli_[i];
        const U128& radix = pow2_64_mod_qi_[i];
        U128 r{0};
        for (size_t j = limbs; j-- > 0;)
            r = m.add(m.mul(r, radix), m.reduce(U128{x.limb(j)}));
        out[i] = r;
    }
}

BigUInt
RnsBasis::reconstruct(const std::vector<U128>& residues) const
{
    checkArg(residues.size() == primes_.size(),
             "RnsBasis::reconstruct: residue count mismatch");
    // x = sum_i (r_i * (Q/q_i)^-1 mod q_i) * (Q/q_i)  mod Q.
    BigUInt acc{};
    for (size_t i = 0; i < primes_.size(); ++i) {
        U128 coeff = moduli_[i].mul(moduli_[i].reduce(residues[i]),
                                    q_over_qi_inv_[i]);
        acc += q_over_qi_[i] * BigUInt::fromU128(coeff);
    }
    return acc % big_q_;
}

const char*
formName(Form form)
{
    return form == Form::Coeff ? "coeff" : "eval";
}

RnsPolynomial::RnsPolynomial(const RnsBasis& basis, size_t n, Form form)
    : basis_(&basis), n_(n), form_(form), channels_(basis.size())
{
    // Channels allocate their split hi/lo halves directly — no U128
    // staging, zero-initialized by AlignedVec.
    for (auto& ch : channels_)
        ch.ensure(n);
}

RnsPolynomial
RnsPolynomial::fromCoefficients(const RnsBasis& basis,
                                const std::vector<BigUInt>& coeffs)
{
    RnsPolynomial poly(basis, coeffs.size());
    std::vector<U128> residues;
    for (size_t c = 0; c < coeffs.size(); ++c) {
        basis.decomposeInto(coeffs[c], residues);
        for (size_t i = 0; i < basis.size(); ++i)
            poly.channels_[i].set(c, residues[i]);
    }
    return poly;
}

std::vector<BigUInt>
RnsPolynomial::toCoefficients() const
{
    detail::checkForm(*this, Form::Coeff, "RnsPolynomial::toCoefficients");
    std::vector<BigUInt> out(n_);
    std::vector<U128> residues(basis_->size());
    for (size_t c = 0; c < n_; ++c) {
        for (size_t i = 0; i < basis_->size(); ++i)
            residues[i] = channels_[i].at(c);
        out[c] = basis_->reconstruct(residues);
    }
    return out;
}

void
RnsPolynomial::setChannelFromU128(size_t i, const std::vector<U128>& values)
{
    checkArg(values.size() == n_,
             "RnsPolynomial::setChannelFromU128: length mismatch");
    channels_[i].assignFromU128(values);
}

RnsPolynomial
randomPolynomial(const RnsBasis& basis, size_t n, uint64_t seed)
{
    RnsPolynomial p(basis, n);
    SplitMix64 rng(seed);
    for (size_t i = 0; i < basis.size(); ++i) {
        ResidueVector& ch = p.channel(i);
        for (size_t c = 0; c < n; ++c)
            ch.set(c, rng.nextBelow(basis.prime(i).q));
    }
    return p;
}

namespace detail {

void
checkCompatible(const RnsBasis& basis, const RnsPolynomial& a,
                const RnsPolynomial& b, const char* what)
{
    if (&a.basis() != &basis || &b.basis() != &basis) {
        throw InvalidArgument(std::string(what) +
                              ": polynomial from a different basis");
    }
    if (a.n() != b.n())
        throw InvalidArgument(std::string(what) + ": length mismatch");
}

void
checkForm(const RnsPolynomial& a, Form expected, const char* what)
{
    if (a.form() != expected) {
        throw InvalidArgument(std::string(what) + ": operand is in " +
                              formName(a.form()) + " form, expected " +
                              formName(expected));
    }
}

void
checkDest(const RnsPolynomial& c, const RnsBasis& basis, size_t n, Form form,
          const char* what)
{
    if (&c.basis() != &basis) {
        throw InvalidArgument(std::string(what) +
                              ": destination from a different basis");
    }
    if (c.n() != n) {
        throw InvalidArgument(std::string(what) +
                              ": destination length mismatch");
    }
    if (c.form() != form) {
        throw InvalidArgument(std::string(what) + ": destination is in " +
                              formName(c.form()) + " form, expected " +
                              formName(form));
    }
}

void
addChannel(Backend backend, const RnsBasis& basis, size_t channel,
           const RnsPolynomial& a, const RnsPolynomial& b, RnsPolynomial& c)
{
    // Channel spans go straight to the backend — no repack, no scratch.
    blas::vadd(backend, basis.modulus(channel), a.channel(channel).span(),
               b.channel(channel).span(), c.channel(channel).span());
    MQX_FAULT_POINT_DATA("rns.add.out", c.channel(channel).span());
}

void
mulChannel(Backend backend, const RnsBasis& basis, size_t channel,
           const RnsPolynomial& a, const RnsPolynomial& b, RnsPolynomial& c)
{
    blas::vmul(backend, basis.modulus(channel), a.channel(channel).span(),
               b.channel(channel).span(), c.channel(channel).span());
}

void
polymulChannel(Backend backend, const RnsBasis& /*basis*/, size_t channel,
               std::shared_ptr<const ntt::NegacyclicTables> tables,
               ntt::NegacyclicWorkspacePool& workspaces,
               const RnsPolynomial& a, const RnsPolynomial& b,
               RnsPolynomial& c, const robust::CancelToken* cancel)
{
    MQX_SCOPED_SPAN(ch_span, "rns.channel.polymul");
    auto lease = workspaces.acquire(std::move(tables), backend, cancel);
    DSpan out = c.channel(channel).span();
    lease.engine().polymul(a.channel(channel).span(),
                           b.channel(channel).span(), out, cancel);
    MQX_FAULT_POINT_DATA("rns.polymul.out", out);
}

void
toEvalChannel(Backend backend, const RnsBasis& /*basis*/, size_t channel,
              std::shared_ptr<const ntt::NegacyclicTables> tables,
              ntt::NegacyclicWorkspacePool& workspaces,
              const RnsPolynomial& a, RnsPolynomial& c,
              const robust::CancelToken* cancel)
{
    MQX_SCOPED_SPAN(ch_span, "rns.channel.to_eval");
    auto lease = workspaces.acquire(std::move(tables), backend, cancel);
    lease.engine().forward(a.channel(channel).span(),
                           c.channel(channel).span());
}

void
toCoeffChannel(Backend backend, const RnsBasis& /*basis*/, size_t channel,
               std::shared_ptr<const ntt::NegacyclicTables> tables,
               ntt::NegacyclicWorkspacePool& workspaces,
               const RnsPolynomial& a, RnsPolynomial& c,
               const robust::CancelToken* cancel)
{
    MQX_SCOPED_SPAN(ch_span, "rns.channel.to_coeff");
    auto lease = workspaces.acquire(std::move(tables), backend, cancel);
    lease.engine().inverse(a.channel(channel).span(),
                           c.channel(channel).span());
}

void
fmaChannel(Backend backend, const RnsBasis& basis, size_t channel,
           std::shared_ptr<const ntt::NegacyclicTables> tables,
           ntt::NegacyclicWorkspacePool& workspaces,
           const std::vector<std::pair<const RnsPolynomial*,
                                       const RnsPolynomial*>>& products,
           RnsPolynomial& c, const robust::CancelToken* cancel)
{
    MQX_SCOPED_SPAN(ch_span, "rns.channel.fma");
    auto lease = workspaces.acquire(std::move(tables), backend, cancel);
    ntt::NegacyclicEngine& eng = lease.engine();
    // Accumulator and eval staging live in the workspace: a warmed-up
    // lease hands them back sized, so the whole batch is heap-free. Up
    // to kStage pairs are staged in the transform domain, then summed
    // into the accumulator by one dot product; Eval operands are read
    // in place.
    constexpr size_t kStage = (ntt::NegacyclicEngine::kAuxBuffers - 1) / 2;
    ResidueVector& acc = eng.auxBuffer(0);
    std::array<DConstSpan, kStage> ea, eb;
    size_t staged = 0;
    auto evalSpan = [&](const RnsPolynomial& p, size_t slot) -> DConstSpan {
        if (p.form() == Form::Eval)
            return p.channel(channel).span();
        DSpan out = eng.auxBuffer(slot).span();
        eng.forward(p.channel(channel).span(), out);
        return out;
    };
    acc.zero();
    for (size_t p = 0; p < products.size(); ++p) {
        if (cancel)
            cancel->checkpoint("rns.fma.accumulate");
        ea[staged] = evalSpan(*products[p].first, 1 + 2 * staged);
        eb[staged] = evalSpan(*products[p].second, 2 + 2 * staged);
        if (++staged == kStage || p + 1 == products.size()) {
            MQX_SCOPED_SPAN(dot_span, "rns.fma.dot");
            blas::vdot(backend, basis.modulus(channel), ea.data(), eb.data(),
                       staged, acc.span());
            staged = 0;
        }
    }
    if (cancel)
        cancel->checkpoint("rns.fma.inverse");
    // The whole sum pays this single inverse — the fusion the batch
    // exists for.
    eng.inverse(acc.span(), c.channel(channel).span());
    MQX_FAULT_POINT_DATA("rns.fma.out", c.channel(channel).span());
}

namespace {

/**
 * Thread-local staging for the interleaved batch pipelines: four packed
 * il*n ping-pong buffers, a packed eval accumulator, per-lane unpack
 * staging, and the span tables handed to pack/unpack. ensure()
 * reallocates only when (il, n) changes, so steady-state batch calls
 * never touch the heap.
 */
struct BatchScratch
{
    ResidueVector packed_a, packed_b, packed_c, packed_d, packed_acc;
    std::vector<ResidueVector> lane_buf;
    std::vector<DConstSpan> lane_src;
    std::vector<DSpan> lane_dst;
    /** Guarded by BatchScratchLease; nested leasing is a bug. */
    bool in_use = false;

    void
    ensure(size_t il, size_t n)
    {
        const size_t total = il * n;
        packed_a.ensure(total);
        packed_b.ensure(total);
        packed_c.ensure(total);
        packed_d.ensure(total);
        if (lane_buf.size() != il)
            lane_buf.resize(il);
        for (auto& v : lane_buf)
            v.ensure(n);
        lane_src.resize(il);
        lane_dst.resize(il);
    }
};

BatchScratch&
batchScratch()
{
    thread_local BatchScratch scratch;
    return scratch;
}

/**
 * RAII lease over the thread-local BatchScratch: sizes it for (il, n)
 * and marks it busy for this scope. The destructor clears the flag on
 * every exit path, so an exception (injected or real) mid-batch can
 * never leave the scratch latched busy; a nested lease — which would
 * clobber live packed buffers — throws instead of corrupting them.
 */
class BatchScratchLease
{
  public:
    BatchScratchLease(size_t il, size_t n) : s_(batchScratch())
    {
        checkArg(!s_.in_use,
                 "BatchScratch: nested lease on one thread");
        s_.in_use = true;
        s_.ensure(il, n);
    }
    ~BatchScratchLease() { s_.in_use = false; }
    BatchScratchLease(const BatchScratchLease&) = delete;
    BatchScratchLease& operator=(const BatchScratchLease&) = delete;

    BatchScratch* operator->() { return &s_; }

  private:
    BatchScratch& s_;
};

/**
 * Pack this channel's spans of @p il consecutive operands (starting at
 * product @p p0, side selected by @p second) and run the merged
 * negacyclic forward over the whole tile into @p out, clobbering
 * @p packed and @p scratch.
 */
void
packForward(Backend backend, const ntt::NegacyclicTables& tables,
            const BatchLayout& layout, size_t channel,
            const std::vector<std::pair<const RnsPolynomial*,
                                        const RnsPolynomial*>>& products,
            size_t p0, bool second, std::vector<DConstSpan>& src,
            ResidueVector& packed, ResidueVector& out, ResidueVector& scratch)
{
    MQX_FAULT_POINT("rns.batch.pack");
    const size_t il = layout.il;
    for (size_t lane = 0; lane < il; ++lane) {
        const auto& pair = products[p0 + lane];
        const RnsPolynomial& p = second ? *pair.second : *pair.first;
        src[lane] = p.channel(channel).span();
    }
    batch::packLanes(layout, src.data(), il, packed.span());
    ntt::negacyclicForwardBatch(tables, backend, il, packed.span(),
                                out.span(), scratch.span());
}

} // namespace

void
polymulChannelBatch(Backend backend, const RnsBasis& basis, size_t channel,
                    std::shared_ptr<const ntt::NegacyclicTables> tables,
                    const std::vector<std::pair<const RnsPolynomial*,
                                                const RnsPolynomial*>>&
                        products,
                    size_t p0, size_t il, std::vector<RnsPolynomial>& results,
                    const robust::CancelToken* cancel)
{
    MQX_SCOPED_SPAN(ch_span, "rns.channel.polymul_batch");
    const size_t n = results[p0].n();
    const Modulus& m = basis.modulus(channel);
    const BatchLayout layout(n, il, il);
    BatchScratchLease s(il, n);

    // Each packed stage is il transforms of work, so each gets the
    // checkpoint NegacyclicEngine::polymul gives one transform.
    if (cancel)
        cancel->checkpoint("rns.polymul_batch.forward");
    packForward(backend, *tables, layout, channel, products, p0,
                /*second=*/false, s->lane_src, s->packed_a, s->packed_b,
                s->packed_c);
    if (cancel)
        cancel->checkpoint("rns.polymul_batch.forward");
    packForward(backend, *tables, layout, channel, products, p0,
                /*second=*/true, s->lane_src, s->packed_a, s->packed_c,
                s->packed_d);
    if (cancel)
        cancel->checkpoint("rns.polymul_batch.pointwise");
    // Point-wise product over the whole packed tile: the layout is a
    // per-lane permutation, and vmul is element-wise, so one flat call
    // multiplies every lane at once.
    blas::vmul(backend, m, s->packed_b.span(), s->packed_c.span(),
               s->packed_b.span());
    if (cancel)
        cancel->checkpoint("rns.polymul_batch.inverse");
    ntt::negacyclicInverseBatch(*tables, backend, il, s->packed_b.span(),
                                s->packed_a.span(), s->packed_c.span());
    MQX_FAULT_POINT("rns.batch.unpack");
    for (size_t lane = 0; lane < il; ++lane)
        s->lane_dst[lane] = results[p0 + lane].channel(channel).span();
    batch::unpackLanes(layout, s->packed_a.span(), s->lane_dst.data(), il);
    for (size_t lane = 0; lane < il; ++lane)
        MQX_FAULT_POINT_DATA("rns.batch.out", s->lane_dst[lane]);
}

void
fmaChannelBatched(Backend backend, const RnsBasis& basis, size_t channel,
                  std::shared_ptr<const ntt::NegacyclicTables> tables,
                  ntt::NegacyclicWorkspacePool& workspaces,
                  const std::vector<std::pair<const RnsPolynomial*,
                                              const RnsPolynomial*>>& products,
                  size_t il, RnsPolynomial& c,
                  const robust::CancelToken* cancel)
{
    MQX_SCOPED_SPAN(ch_span, "rns.channel.fma_batch");
    auto lease = workspaces.acquire(tables, backend, cancel);
    ntt::NegacyclicEngine& eng = lease.engine();
    const size_t n = c.n();
    const Modulus& m = basis.modulus(channel);
    const size_t tiles = products.size() / il;
    const BatchLayout layout(n, il, il);
    BatchScratchLease s(il, n);

    ResidueVector& acc = eng.auxBuffer(0);
    acc.zero();
    s->packed_acc.ensure(il * n);
    for (size_t t = 0; t < tiles; ++t) {
        const size_t p0 = t * il;
        // Each packed forward is il transforms of work, so it gets the
        // checkpoint fmaChannel gives each product.
        if (cancel)
            cancel->checkpoint("rns.fma.accumulate");
        packForward(backend, *tables, layout, channel, products, p0,
                    /*second=*/false, s->lane_src, s->packed_a, s->packed_b,
                    s->packed_c);
        if (cancel)
            cancel->checkpoint("rns.fma.accumulate");
        packForward(backend, *tables, layout, channel, products, p0,
                    /*second=*/true, s->lane_src, s->packed_a, s->packed_c,
                    s->packed_d);
        // The first tile's products are the partial sums themselves
        // (0 + x = x for canonical x): they go straight into the
        // accumulator, with no zero fill and no add pass.
        if (t == 0) {
            blas::vmul(backend, m, s->packed_b.span(), s->packed_c.span(),
                       s->packed_acc.span());
            continue;
        }
        blas::vmul(backend, m, s->packed_b.span(), s->packed_c.span(),
                   s->packed_b.span());
        blas::vadd(backend, m, s->packed_acc.span(), s->packed_b.span(),
                   s->packed_acc.span());
    }
    if (tiles > 0) {
        // Fold the packed per-lane partial sums into the channel
        // accumulator. Exact mod-q addition is order-independent, so
        // this regrouping leaves the final sum bit-identical to the
        // per-product fmaChannel path.
        MQX_FAULT_POINT("rns.batch.unpack");
        for (size_t lane = 0; lane < il; ++lane)
            s->lane_dst[lane] = s->lane_buf[lane].span();
        batch::unpackLanes(layout, s->packed_acc.span(), s->lane_dst.data(),
                           il);
        for (size_t lane = 0; lane < il; ++lane)
            blas::vadd(backend, m, acc.span(), s->lane_buf[lane].span(),
                       acc.span());
    }
    // Remainder products (k % il) take the classic per-product
    // transform-domain accumulate.
    ResidueVector& fa = eng.auxBuffer(1);
    ResidueVector& fb = eng.auxBuffer(2);
    for (size_t p = tiles * il; p < products.size(); ++p) {
        if (cancel)
            cancel->checkpoint("rns.fma.accumulate");
        eng.forward(products[p].first->channel(channel).span(), fa.span());
        eng.forward(products[p].second->channel(channel).span(), fb.span());
        eng.pointwiseAccumulate(acc.span(), fa.span(), fb.span());
    }
    if (cancel)
        cancel->checkpoint("rns.fma.inverse");
    // One inverse for the whole batch, exactly as fmaChannel.
    eng.inverse(acc.span(), c.channel(channel).span());
    MQX_FAULT_POINT_DATA("rns.fma.out", c.channel(channel).span());
}

} // namespace detail

} // namespace rns
} // namespace mqx
