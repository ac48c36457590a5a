/**
 * @file
 * Residue number system (RNS) over 128-bit NTT-friendly primes.
 *
 * The paper's opening motivation (Section 1): FHE coefficients exceed
 * 1,000 bits, and "prior works employ the residue number system (RNS)
 * to decompose very large coefficients into smaller components
 * (residues) that fit within machine words"; recent schemes use 128-bit
 * residues to shrink the basis. This module is that substrate: a basis
 * of distinct 124-bit NTT-friendly primes, CRT decomposition and
 * reconstruction, and coefficient-wise ring operations that run each
 * residue channel through the paper's BLAS/NTT kernels.
 *
 * Storage: channels live NATIVELY in the split hi/lo SoA layout
 * (core/residue_span.h) the SIMD kernels consume — the kernel layers
 * hand channel spans straight to the backends with zero AoS<->SoA
 * conversion. U128/BigUInt adapters exist only at the public boundary
 * (fromCoefficients / toCoefficients and the reference comparators).
 */
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bigint/biguint.h"
#include "core/backend.h"
#include "ntt/negacyclic.h"
#include "ntt/prime.h"

namespace mqx {
namespace robust {
class CancelToken;
} // namespace robust
} // namespace mqx

namespace mqx {

namespace engine {
class Engine;
}

namespace rns {

/**
 * A CRT basis q_0, ..., q_{k-1} of distinct NTT-friendly primes with
 * modulus Q = prod q_i, plus the precomputed reconstruction constants
 * Q_i = Q / q_i and Q_i^-1 mod q_i.
 */
class RnsBasis
{
  public:
    /**
     * Deterministically build a basis of @p count primes of @p bits bits
     * with 2-adicity @p two_adicity.
     */
    RnsBasis(int bits, int two_adicity, int count);

    /** Build from explicit primes (must be pairwise distinct). */
    explicit RnsBasis(std::vector<ntt::NttPrime> primes);

    size_t size() const { return primes_.size(); }
    const ntt::NttPrime& prime(size_t i) const { return primes_[i]; }
    const Modulus& modulus(size_t i) const { return moduli_[i]; }

    /** Q = product of the basis primes. */
    const BigUInt& bigModulus() const { return big_q_; }

    /** Residues (x mod q_i) of a value x < Q. */
    std::vector<U128> decompose(const BigUInt& x) const;

    /**
     * Residues of x < Q written into @p out (resized to size()). No
     * big-integer division and no allocation beyond @p out itself: each
     * residue folds x's 64-bit limbs with a Horner recurrence over the
     * precomputed 2^64 mod q_i, so fromCoefficients() runs one pass of
     * word-sized modular arithmetic per (coefficient, prime) instead of
     * constructing a fresh BigUInt divisor for every pair.
     */
    void decomposeInto(const BigUInt& x, std::vector<U128>& out) const;

    /** CRT reconstruction of a residue tuple into [0, Q). */
    BigUInt reconstruct(const std::vector<U128>& residues) const;

  private:
    void precompute();

    std::vector<ntt::NttPrime> primes_;
    std::vector<Modulus> moduli_;
    BigUInt big_q_;
    std::vector<BigUInt> qi_big_;     ///< q_i as a BigUInt (per-prime divisor)
    std::vector<U128> pow2_64_mod_qi_; ///< 2^64 mod q_i (limb folding)
    std::vector<BigUInt> q_over_qi_;  ///< Q / q_i
    std::vector<U128> q_over_qi_inv_; ///< (Q / q_i)^-1 mod q_i
};

/**
 * Which domain an RnsPolynomial's channels currently live in.
 *
 * `Coeff` is the natural representation: channel i holds the
 * coefficients of the polynomial mod q_i. `Eval` holds the forward
 * negacyclic NTT of each channel (the cyclic forward of the input
 * twisted by psi^i, bit-reversed order — see ntt/negacyclic.h). In Eval form the
 * negacyclic ring product is a point-wise multiply, and addition is
 * point-wise in either form, so chains of products and sums can stay
 * resident in Eval form and pay a single inverse transform at the end —
 * the transform-domain residency that specialized accelerators exploit.
 */
enum class Form
{
    Coeff,
    Eval,
};

/** "coeff" / "eval" (diagnostics). */
const char* formName(Form form);

/**
 * A polynomial of length n over Z_Q, stored as k residue channels of
 * length n (the "RNS polynomial" every FHE library manipulates). Each
 * channel is a split hi/lo ResidueVector with 64-byte-aligned halves —
 * exactly what the SIMD backends load, so channel spans flow to the
 * kernels with no repacking.
 */
class RnsPolynomial
{
  public:
    RnsPolynomial(const RnsBasis& basis, size_t n,
                  Form form = Form::Coeff);

    /** Decompose big-integer coefficients (each < Q). */
    static RnsPolynomial fromCoefficients(const RnsBasis& basis,
                                          const std::vector<BigUInt>& coeffs);

    /**
     * Reconstruct big-integer coefficients.
     * @throws InvalidArgument unless the polynomial is in Coeff form.
     */
    std::vector<BigUInt> toCoefficients() const;

    size_t n() const { return n_; }
    const RnsBasis& basis() const { return *basis_; }

    /**
     * Domain the channels currently live in — fixed at construction;
     * the conversion paths (Engine/RnsKernels toEval/toCoeff) write
     * into a polynomial tagged with the target form rather than
     * re-tagging in place, so a tag can never drift from the data it
     * describes.
     */
    Form form() const { return form_; }

    /** Residue channel i in native split hi/lo layout (length n). */
    const ResidueVector& channel(size_t i) const { return channels_[i]; }
    ResidueVector& channel(size_t i) { return channels_[i]; }

    /** Channel i repacked as U128s — counted adapter, boundary use only. */
    std::vector<U128> channelToU128(size_t i) const
    {
        return channels_[i].toU128();
    }

    /** Overwrite channel i from U128s (counted adapter, boundary only). */
    void setChannelFromU128(size_t i, const std::vector<U128>& values);

  private:
    const RnsBasis* basis_;
    size_t n_;
    Form form_ = Form::Coeff;
    std::vector<ResidueVector> channels_;
};

/**
 * Uniform random polynomial over the basis: every channel residue drawn
 * below its prime. Deterministic in @p seed (tests, benches, examples
 * all sample through this one helper).
 */
RnsPolynomial randomPolynomial(const RnsBasis& basis, size_t n,
                               uint64_t seed);

/**
 * Coefficient-wise ring operations over Z_Q, executed channel-by-channel
 * with the chosen kernel backend.
 *
 * Every operation has two flavours: a value-returning convenience that
 * constructs the result polynomial, and an `*Into` variant that writes
 * into a caller-preallocated destination. The Into variants are the
 * steady-state path: with warmed caches they perform ZERO layout
 * conversions and ZERO heap allocations per call (layout::metrics()
 * proves it in tests/test_layout.cc) — the channel spans go straight to
 * the backends and all transform scratch is leased from a recycled
 * workspace pool. Destinations must match the operands' basis and
 * length and carry the result's form; a destination may alias an
 * operand (channels are updated with exact-alias-safe kernels).
 */
class RnsKernels
{
  public:
    /** Serial channel loop on @p backend (the original seed path). */
    RnsKernels(const RnsBasis& basis, Backend backend);

    /**
     * Route every op through @p engine: channels fan out across its
     * thread pool, polymuls reuse its NTT plan cache, and scratch comes
     * from its workspace pool. Results are bit-identical to the serial
     * constructor (channels are independent); @p engine must outlive
     * this object.
     */
    RnsKernels(const RnsBasis& basis, engine::Engine& engine);

    /**
     * c = a + b (point-wise, mod Q via CRT channels). Valid in either
     * form — the NTT is linear — but both operands must be in the SAME
     * form; the result carries it.
     */
    RnsPolynomial add(const RnsPolynomial& a, const RnsPolynomial& b) const;
    void addInto(const RnsPolynomial& a, const RnsPolynomial& b,
                 RnsPolynomial& c) const;

    /** c = a .* b (point-wise product; same-form operands, as add). */
    RnsPolynomial mul(const RnsPolynomial& a, const RnsPolynomial& b) const;
    void mulInto(const RnsPolynomial& a, const RnsPolynomial& b,
                 RnsPolynomial& c) const;

    /**
     * Negacyclic polynomial product a * b mod (x^n + 1, Q): each channel
     * runs the merged negacyclic forward + point-wise + inverse
     * pipeline.
     * Operands and result are in Coeff form.
     */
    RnsPolynomial polymulNegacyclic(const RnsPolynomial& a,
                                    const RnsPolynomial& b) const;
    void polymulNegacyclicInto(const RnsPolynomial& a, const RnsPolynomial& b,
                               RnsPolynomial& c) const;

    /**
     * Forward every channel into Eval form (cached NegacyclicTables;
     * channels fan out across the engine's pool when engine-routed).
     * @throws InvalidArgument unless @p a is in Coeff form.
     */
    RnsPolynomial toEval(const RnsPolynomial& a) const;
    void toEvalInto(const RnsPolynomial& a, RnsPolynomial& c) const;

    /** Inverse of toEval. @throws InvalidArgument unless Eval form. */
    RnsPolynomial toCoeff(const RnsPolynomial& a) const;
    void toCoeffInto(const RnsPolynomial& a, RnsPolynomial& c) const;

    /**
     * Negacyclic ring product of two Eval-form operands: one point-wise
     * multiply per channel, no transforms. Result stays in Eval form.
     * @throws InvalidArgument unless both operands are Eval.
     */
    RnsPolynomial mulEval(const RnsPolynomial& a,
                          const RnsPolynomial& b) const;
    void mulEvalInto(const RnsPolynomial& a, const RnsPolynomial& b,
                     RnsPolynomial& c) const;

    /**
     * Fused dot product sum_i a_i * b_i mod (x^n + 1, Q). Operands may
     * mix forms per pair: Coeff operands are forwarded on the fly, Eval
     * operands are consumed as-is. Accumulation happens in the
     * transform domain, so the whole sum pays ONE inverse transform per
     * channel — versus one per product on the naive path — and the
     * result (Coeff form) is bit-identical to the naive sum of
     * polymulNegacyclic calls because every step is exact mod-q
     * arithmetic. @throws InvalidArgument on an empty batch.
     */
    RnsPolynomial fmaBatch(
        const std::vector<std::pair<const RnsPolynomial*,
                                    const RnsPolynomial*>>& products) const;
    void fmaBatchInto(
        const std::vector<std::pair<const RnsPolynomial*,
                                    const RnsPolynomial*>>& products,
        RnsPolynomial& c) const;

    /** Distinct cached NegacyclicTables on the serial path (tests). */
    size_t cachedTableCount() const;

  private:
    /**
     * Serial-path table cache, keyed by n (the basis is fixed): without
     * it every serial polymul re-derived the NTT plan and psi tables
     * for every channel — O(k n log n) setup per product. Engine-routed
     * kernels use the engine's PlanCache instead and never touch this.
     */
    std::shared_ptr<const ntt::NegacyclicTables>
    tablesFor(size_t channel, size_t n) const;

    const RnsBasis* basis_;
    Backend backend_;
    engine::Engine* engine_ = nullptr;
    mutable std::mutex tables_mutex_;
    mutable std::unordered_map<
        size_t, std::vector<std::shared_ptr<const ntt::NegacyclicTables>>>
        tables_by_n_;
    /**
     * Serial-path transform workspaces, recycled across calls so the
     * steady state allocates nothing (engine-routed kernels lease from
     * the engine's pool instead).
     */
    mutable ntt::NegacyclicWorkspacePool workspaces_;
};

namespace detail {

/**
 * Single-channel bodies shared by the serial RnsKernels loop and the
 * engine's parallel fan-out — both paths run exactly this code, which
 * is what makes threaded results bit-identical to serial ones. All of
 * them consume and produce channel spans in the native split layout;
 * the transform-bearing ones lease their scratch from @p workspaces.
 */
void addChannel(Backend backend, const RnsBasis& basis, size_t channel,
                const RnsPolynomial& a, const RnsPolynomial& b,
                RnsPolynomial& c);

void mulChannel(Backend backend, const RnsBasis& basis, size_t channel,
                const RnsPolynomial& a, const RnsPolynomial& b,
                RnsPolynomial& c);

/**
 * One channel of the negacyclic product. @p tables holds the cached
 * plan + psi tables for (q_channel, n); pass nullptr to derive them
 * on the spot (a cacheless path). A non-null @p cancel switches the
 * body to the staged pipeline (forward → pointwise → inverse with a
 * cancellation checkpoint at every stage boundary), so a tripped
 * deadline aborts within one NTT stage; the null fast path is the
 * fused eng.polymul call, unchanged.
 */
void polymulChannel(Backend backend, const RnsBasis& basis, size_t channel,
                    std::shared_ptr<const ntt::NegacyclicTables> tables,
                    ntt::NegacyclicWorkspacePool& workspaces,
                    const RnsPolynomial& a, const RnsPolynomial& b,
                    RnsPolynomial& c,
                    const robust::CancelToken* cancel = nullptr);

/**
 * Recovery flavour of polymulChannel: identical math, but it passes no
 * fault points and leases nothing from shared pools (a private engine
 * is built on the spot), so an armed FaultPlan can never re-corrupt a
 * repair. Allocation-heavy by design — only the verify-retry path
 * calls it.
 */
void polymulChannelUnfaulted(
    Backend backend, const RnsBasis& basis, size_t channel,
    std::shared_ptr<const ntt::NegacyclicTables> tables,
    const RnsPolynomial& a, const RnsPolynomial& b, RnsPolynomial& c);

/** One channel of the forward (Coeff -> Eval) conversion. */
void toEvalChannel(Backend backend, const RnsBasis& basis, size_t channel,
                   std::shared_ptr<const ntt::NegacyclicTables> tables,
                   ntt::NegacyclicWorkspacePool& workspaces,
                   const RnsPolynomial& a, RnsPolynomial& c);

/** One channel of the inverse (Eval -> Coeff) conversion. */
void toCoeffChannel(Backend backend, const RnsBasis& basis, size_t channel,
                    std::shared_ptr<const ntt::NegacyclicTables> tables,
                    ntt::NegacyclicWorkspacePool& workspaces,
                    const RnsPolynomial& a, RnsPolynomial& c);

/**
 * One channel of the fused transform-domain dot product: forward any
 * Coeff operand, point-wise accumulate every pair, then ONE inverse.
 * The accumulator and eval staging buffers live in the leased
 * workspace, so the whole batch touches no heap.
 */
void fmaChannel(Backend backend, const RnsBasis& basis, size_t channel,
                std::shared_ptr<const ntt::NegacyclicTables> tables,
                ntt::NegacyclicWorkspacePool& workspaces,
                const std::vector<std::pair<const RnsPolynomial*,
                                            const RnsPolynomial*>>& products,
                RnsPolynomial& c,
                const robust::CancelToken* cancel = nullptr);

/** Recovery flavour of fmaChannel (see polymulChannelUnfaulted). */
void fmaChannelUnfaulted(
    Backend backend, const RnsBasis& basis, size_t channel,
    std::shared_ptr<const ntt::NegacyclicTables> tables,
    const std::vector<std::pair<const RnsPolynomial*,
                                const RnsPolynomial*>>& products,
    RnsPolynomial& c);

/** Recovery flavour of addChannel (no fault points; for digest repair). */
void addChannelUnfaulted(Backend backend, const RnsBasis& basis,
                         size_t channel, const RnsPolynomial& a,
                         const RnsPolynomial& b, RnsPolynomial& c);

/**
 * One channel-tile of the interleaved-batch negacyclic product: packs
 * this channel's spans of products [p0, p0 + il) into the channel-major
 * batch layout (core/batch_layout.h), runs the merged negacyclic
 * forward + point-wise + inverse ONCE across all il lanes with the
 * batched kernels (ntt::negacyclicForwardBatch et al.), and unpacks into results[p0 .. p0 + il).
 * Per-lane word-identical to il polymulChannel calls. @p tables must be
 * non-null and batch-eligible (ntt::batchSupported). Packing staging is
 * thread-local and recycled, so steady-state calls are allocation-free.
 */
void polymulChannelBatch(
    Backend backend, const RnsBasis& basis, size_t channel,
    std::shared_ptr<const ntt::NegacyclicTables> tables,
    const std::vector<std::pair<const RnsPolynomial*,
                                const RnsPolynomial*>>& products,
    size_t p0, size_t il, std::vector<RnsPolynomial>& results);

/**
 * Interleaved-batch flavour of fmaChannel for uniform all-Coeff
 * batches: whole tiles of il products run their forwards through the
 * batched kernels and accumulate point-wise in the packed layout; the
 * lane partial sums are then folded into the channel accumulator, any
 * k % il remainder products take the classic per-product path, and the
 * whole sum still pays ONE inverse transform. Exact mod-q accumulation
 * is order-independent, so the result is bit-identical to fmaChannel.
 */
void fmaChannelBatched(
    Backend backend, const RnsBasis& basis, size_t channel,
    std::shared_ptr<const ntt::NegacyclicTables> tables,
    ntt::NegacyclicWorkspacePool& workspaces,
    const std::vector<std::pair<const RnsPolynomial*,
                                const RnsPolynomial*>>& products,
    size_t il, RnsPolynomial& c);

/** Shared operand validation (same basis, same length). */
void checkCompatible(const RnsBasis& basis, const RnsPolynomial& a,
                     const RnsPolynomial& b);

/** @throws InvalidArgument unless @p a is in @p expected form. */
void checkForm(const RnsPolynomial& a, Form expected, const char* what);

/**
 * Destination validation for the *Into APIs: @p c must be over
 * @p basis, of length @p n, and constructed in @p form.
 */
void checkDest(const RnsPolynomial& c, const RnsBasis& basis, size_t n,
               Form form, const char* what);

} // namespace detail

} // namespace rns
} // namespace mqx
