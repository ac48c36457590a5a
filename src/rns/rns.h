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
     * the conversions (Engine::toEval/toCoeff) write into a polynomial
     * tagged with the target form rather than re-tagging in place, so a
     * tag can never drift from the data it describes.
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

namespace detail {

/**
 * Single-channel bodies of the channel-wise ring operations over Z_Q.
 * engine::Engine fans them out across its pool (one task per channel;
 * with one thread the tasks run inline in channel order), and its
 * verify repairs and batch fallbacks rerun the same bodies, so every
 * result comes from this one code. All of them consume and produce
 * channel spans in the native split layout. The transform-bearing ones
 * lease their scratch from @p workspaces and take q from @p tables;
 * they keep @p basis so the family shares one signature. Destinations
 * must match the operands' basis and length and carry the result's
 * form; a destination may alias an operand (channels are updated with
 * exact-alias-safe kernels).
 */
void addChannel(Backend backend, const RnsBasis& basis, size_t channel,
                const RnsPolynomial& a, const RnsPolynomial& b,
                RnsPolynomial& c);

void mulChannel(Backend backend, const RnsBasis& basis, size_t channel,
                const RnsPolynomial& a, const RnsPolynomial& b,
                RnsPolynomial& c);

/**
 * One channel of the negacyclic product. @p tables holds the cached
 * plan + psi tables for (q_channel, n). A non-null @p cancel is checked
 * while waiting for a workspace lease and between the stages of
 * NegacyclicEngine::polymul, so a tripped deadline aborts within one
 * transform.
 */
void polymulChannel(Backend backend, const RnsBasis& basis, size_t channel,
                    std::shared_ptr<const ntt::NegacyclicTables> tables,
                    ntt::NegacyclicWorkspacePool& workspaces,
                    const RnsPolynomial& a, const RnsPolynomial& b,
                    RnsPolynomial& c,
                    const robust::CancelToken* cancel = nullptr);

/**
 * One channel of the forward (Coeff -> Eval) conversion. A non-null
 * @p cancel is checked while waiting for a workspace lease.
 */
void toEvalChannel(Backend backend, const RnsBasis& basis, size_t channel,
                   std::shared_ptr<const ntt::NegacyclicTables> tables,
                   ntt::NegacyclicWorkspacePool& workspaces,
                   const RnsPolynomial& a, RnsPolynomial& c,
                   const robust::CancelToken* cancel = nullptr);

/** One channel of the inverse (Eval -> Coeff) conversion; as above. */
void toCoeffChannel(Backend backend, const RnsBasis& basis, size_t channel,
                    std::shared_ptr<const ntt::NegacyclicTables> tables,
                    ntt::NegacyclicWorkspacePool& workspaces,
                    const RnsPolynomial& a, RnsPolynomial& c,
                    const robust::CancelToken* cancel = nullptr);

/**
 * One channel of the fused transform-domain dot product: forward any
 * Coeff operand, stage up to four eval pairs and sum each stage into
 * the accumulator with one blas::vdot (lazily reduced on AVX-512
 * IFMA), then ONE inverse. The accumulator and eval staging buffers
 * live in the leased workspace, so the whole batch touches no heap,
 * and their count does not grow with the number of products. A
 * non-null @p cancel is checked before each product
 * (`rns.fma.accumulate`) and before the inverse (`rns.fma.inverse`).
 */
void fmaChannel(Backend backend, const RnsBasis& basis, size_t channel,
                std::shared_ptr<const ntt::NegacyclicTables> tables,
                ntt::NegacyclicWorkspacePool& workspaces,
                const std::vector<std::pair<const RnsPolynomial*,
                                            const RnsPolynomial*>>& products,
                RnsPolynomial& c,
                const robust::CancelToken* cancel = nullptr);

/**
 * One channel-tile of the interleaved-batch negacyclic product: packs
 * this channel's spans of products [p0, p0 + il) into the channel-major
 * batch layout (core/batch_layout.h), runs the merged negacyclic
 * forward + point-wise + inverse ONCE across all il lanes with the
 * batched kernels (ntt::negacyclicForwardBatch et al.), and unpacks into results[p0 .. p0 + il).
 * Per-lane word-identical to il polymulChannel calls. @p tables must be
 * non-null and batch-eligible (ntt::batchSupported). Packing staging is
 * thread-local and recycled, so steady-state calls are allocation-free.
 * A non-null @p cancel is checked before each packed forward, the
 * point-wise product and the packed inverse.
 */
void polymulChannelBatch(
    Backend backend, const RnsBasis& basis, size_t channel,
    std::shared_ptr<const ntt::NegacyclicTables> tables,
    const std::vector<std::pair<const RnsPolynomial*,
                                const RnsPolynomial*>>& products,
    size_t p0, size_t il, std::vector<RnsPolynomial>& results,
    const robust::CancelToken* cancel = nullptr);

/**
 * Interleaved-batch flavour of fmaChannel for uniform all-Coeff
 * batches: whole tiles of il products run their forwards through the
 * batched kernels and accumulate point-wise in the packed layout; the
 * lane partial sums are then folded into the channel accumulator, any
 * k % il remainder products take the classic per-product path, and the
 * whole sum still pays ONE inverse transform. Exact mod-q accumulation
 * is order-independent, so the result is bit-identical to fmaChannel.
 * A non-null @p cancel is checked before each packed forward
 * (`rns.fma.accumulate`) and before the inverse (`rns.fma.inverse`).
 */
void fmaChannelBatched(
    Backend backend, const RnsBasis& basis, size_t channel,
    std::shared_ptr<const ntt::NegacyclicTables> tables,
    ntt::NegacyclicWorkspacePool& workspaces,
    const std::vector<std::pair<const RnsPolynomial*,
                                const RnsPolynomial*>>& products,
    size_t il, RnsPolynomial& c,
    const robust::CancelToken* cancel = nullptr);

/**
 * Shared operand validation (both over @p basis, same length); @p what
 * names the op in the error message.
 */
void checkCompatible(const RnsBasis& basis, const RnsPolynomial& a,
                     const RnsPolynomial& b, const char* what);

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
