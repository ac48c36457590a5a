/**
 * @file
 * NTT plans: validated parameters plus every precomputed table the
 * kernels need (the cyclic stage twiddles in both directions with their
 * Shoup companions, n^-1, Barrett constants).
 *
 * Dataflow (paper Section 3.2): the Pease constant-geometry radix-2
 * NTT. Every stage has identical wiring — butterfly j reads positions
 * (j, j + n/2) and writes (2j, 2j + 1). The forward stage is a
 * Cooley-Tukey butterfly
 *
 *     t = x[j + n/2] * w[s][j]              (mod q)
 *     y[2j] = x[j] + t;  y[2j+1] = x[j] - t
 *
 * that splits x^n - 1 level by level: stage s, butterfly j reduces
 * modulo x^(n/2^(s+1)) -+ zeta with zeta = omega^(brev_s(j mod 2^s) *
 * n/2^(s+1)). After log2(n) stages position k holds the evaluation at
 * omega^brev(k), i.e. the output is in bit-reversed order. The inverse
 * runs the transposed Gentleman-Sande stages in reverse order with the
 * inverted twiddles and folds n^-1 into its last stage, consuming
 * bit-reversed input and producing natural order — so
 * inverse(forward(x)) == x with no explicit permutation, and point-wise
 * products in the transformed domain are order-consistent (the
 * convolution path needs no bit reversal either).
 *
 * Data layout: residue vectors are stored as split hi/lo uint64_t
 * arrays ("the vectorized implementation passes in two 512-bit vectors
 * per input" — Section 3.2).
 *
 * Twiddle storage is ONE n/2-entry table per direction, T[k] =
 * omega^brev(k) (brev over log2(n) - 1 bits), and its inverse
 * omega^-brev(k), each with the Shoup companions floor(w * 2^128 / q):
 * stage s, butterfly j reads T[j mod 2^s], because zeta of level s,
 * factor b is T[b] for every b < 2^s. Stage s therefore reads the
 * first 2^s entries: broadcast-like patterns in the first log2(lanes)
 * stages and contiguous loads after that. The merged negacyclic table
 * (ntt/negacyclic.h) has the same shape with n entries, read at
 * 2^s + (j mod 2^s) by its forward and mirrored by its inverse; one
 * kernel body (ntt/pease_impl.h) serves both.
 *
 * The plan computes omega, n^-1 and n^-1's Shoup companion eagerly and
 * the four cyclic tables on first read (under one std::call_once,
 * shared by every copy of the plan): a plan that only serves the
 * merged negacyclic transforms never builds them.
 */
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/aligned.h"
#include "core/backend.h"
#include "core/residue_span.h"
#include "mod/modulus.h"
#include "ntt/prime.h"
#include "u128/u128.h"

namespace mqx {
namespace ntt {

using mqx::DConstSpan;
using mqx::DSpan;
using mqx::ResidueVector;

/**
 * Immutable per-(q, n) precomputation shared by all backends. Copies
 * share the lazily built cyclic tables.
 */
class NttPlan
{
  public:
    /**
     * @param modulus prime modulus (primality is verified)
     * @param n       transform size, power of two, 2 <= n, n | q - 1
     * @throws InvalidArgument when the parameters cannot support an NTT.
     */
    NttPlan(const Modulus& modulus, size_t n);

    /** Convenience: plan from an NttPrime. */
    NttPlan(const NttPrime& prime, size_t n) : NttPlan(Modulus(prime.q), n) {}

    /**
     * Compatibility shim for perfbench/src/ladder.cc, which still passes
     * the removed L2 budget as 0. Only 0 is accepted, so this is not a
     * knob; drop it in the next benchmark change.
     *
     * @throws InvalidArgument when @p l2_budget is not 0.
     */
    NttPlan(const NttPrime& prime, size_t n, size_t l2_budget);

    const Modulus& modulus() const { return mod_; }
    size_t n() const { return n_; }
    int logn() const { return logn_; }
    U128 omega() const { return omega_; }
    U128 omegaInv() const { return omega_inv_; }
    U128 nInv() const { return n_inv_; }
    /** Shoup companion of n^-1 (for the lazy inverse scaling pass). */
    U128 nInvShoup() const { return n_inv_shoup_; }

    /**
     * Cyclic stage twiddles, n/2 entries: entry k = omega^brev(k), so
     * stage s, butterfly j reads entry j mod 2^s. The inverse table
     * holds omega^-brev(k); the Shoup companions are floor(w * 2^128 /
     * q) of each entry. The first read of any of the four builds all
     * four (thread-safe).
     */
    const ResidueVector& forwardTwiddles() const { return tables().fwd; }
    const ResidueVector& inverseTwiddles() const { return tables().inv; }
    const ResidueVector&
    forwardTwiddlesShoup() const
    {
        return tables().fwd_shoup;
    }
    const ResidueVector&
    inverseTwiddlesShoup() const
    {
        return tables().inv_shoup;
    }

    /** Whether a read has built the cyclic tables yet. */
    bool
    twiddlesBuilt() const
    {
        return lazy_->built.load(std::memory_order_acquire);
    }

    size_t half() const { return n_ / 2; }

    /**
     * Bytes of twiddle storage (for the paper's L2 discussion, §5.4):
     * 4 split-layout tables (fwd/inv x value/Shoup) of n/2 entries,
     * allocated once twiddlesBuilt().
     */
    size_t twiddleBytes() const;

    /**
     * What the pre-compaction stretched layout would occupy (logn * n/2
     * entries per direction, no Shoup companions) — the baseline for
     * the bandwidth-reduction accounting.
     */
    size_t twiddleBytesStretched() const;

    /**
     * DRAM bytes one forward (or inverse) transform sweeps over the
     * ping-pong data, by construction of the kernels: every pass reads
     * and writes n split residues (32 bytes each). Radix2 makes logn
     * passes, Radix4 ceil(logn/2). Twiddle traffic is excluded (the
     * n/2-entry tables are cache-resident).
     */
    size_t bytesSweptPerTransform(StageFusion fusion) const;

  private:
    /** The cyclic tables and their build-once state. */
    struct LazyTables
    {
        std::once_flag once;
        std::atomic<bool> built{false};
        ResidueVector fwd;       ///< omega^brev(k), k < n/2
        ResidueVector inv;       ///< omega^-brev(k)
        ResidueVector fwd_shoup; ///< floor(fwd[k] * 2^128 / q)
        ResidueVector inv_shoup; ///< floor(inv[k] * 2^128 / q)
    };

    const LazyTables& tables() const;

    Modulus mod_;
    size_t n_ = 0;
    int logn_ = 0;
    U128 omega_{};
    U128 omega_inv_{};
    U128 n_inv_{};
    U128 n_inv_shoup_{};
    std::shared_ptr<LazyTables> lazy_ = std::make_shared<LazyTables>();
};

/** In-place bit-reversal permutation of a split-layout vector. */
void bitReversePermute(DSpan data);

/** Bit-reversal of @p i within @p bits bits. */
size_t bitReverseIndex(size_t i, int bits);

} // namespace ntt
} // namespace mqx
