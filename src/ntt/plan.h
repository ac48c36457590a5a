/**
 * @file
 * NTT plans: validated parameters plus every precomputed table the
 * kernels need (twiddle factors per Pease stage, inverse twiddles,
 * n^-1, Barrett constants).
 *
 * Dataflow (paper Section 3.2): we use the Pease constant-geometry
 * radix-2 NTT. Every stage has identical wiring — butterfly j reads
 * positions (j, j + n/2) and writes (2j, 2j + 1):
 *
 *     u = x[j] + x[j + n/2]                 (mod q)
 *     v = (x[j] - x[j + n/2]) * w[s][j]     (mod q)
 *     y[2j] = u;  y[2j+1] = v
 *
 * with stage-s twiddle w[s][j] = omega^((j >> s) << s). After log2(n)
 * stages the output is in bit-reversed order. The inverse transform runs
 * the transposed stages in reverse order with inverse twiddles and a
 * final scale by n^-1, consuming bit-reversed input and producing
 * natural order — so inverse(forward(x)) == x with no explicit
 * permutation, and pointwise products in the transformed domain are
 * order-consistent (the convolution path needs no bit reversal either).
 *
 * Data layout: residue vectors are stored as split hi/lo uint64_t
 * arrays ("the vectorized implementation passes in two 512-bit vectors
 * per input" — Section 3.2).
 *
 * Twiddle storage is COMPACT: stage s has only n/2^(s+1) distinct
 * twiddles (w[s][j] depends on j only through (j >> s) << s), and every
 * stage's set {omega^(k*2^s)} is a stride-2^s subsample of the single
 * power table pow[k] = omega^k, k < n/2. So the plan stores ONE hi/lo
 * power table per direction — the per-stage tables of the old stretched
 * layout (logn * n/2 entries per direction) overlap into n/2 entries —
 * and the kernels address stage s with broadcast loads (late stages,
 * run length 2^s >= lane count) or short step loads (early stages).
 * Every twiddle also carries its Shoup companion floor(w * 2^128 / q)
 * so the butterfly multiply needs no Barrett reduction; even counting
 * the companions, total twiddle bytes shrink by logn/2 (6x at n=4096).
 */
#pragma once

#include <cstddef>
#include <cstdint>
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
 * Immutable per-(q, n) precomputation shared by all backends.
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
     * Index into the shared power table for butterfly j of stage s:
     * stage s uses pow[(j >> s) << s] = omega^((j >> s) << s).
     */
    static size_t
    stageTwiddleIndex(int stage, size_t j)
    {
        return (j >> stage) << stage;
    }

    /**
     * Second-layer index for the fused radix-4 butterfly p of the stage
     * pair (s, s+1): both stage-(s+1) butterflies it contains (2p and
     * 2p+1) share the single twiddle pow[2 * ((p >> s) << s)] =
     * stageTwiddleIndex(s+1, 2p) = stageTwiddleIndex(s+1, 2p+1). The
     * first layer's two twiddles are stageTwiddleIndex(s, p) and
     * stageTwiddleIndex(s, p) + n/4 (p < n/4, so both stay below n/2).
     */
    static size_t
    stageTwiddlePair(int stage, size_t p)
    {
        return ((p >> stage) << stage) << 1;
    }

    /** Distinct twiddles of stage @p s: n/2^(s+1). */
    size_t stageTwiddles(int s) const { return half() >> s; }

    /** Forward twiddle w[s][j] = omega^((j >> s) << s), j < n/2. */
    U128
    twiddle(int stage, size_t j) const
    {
        size_t idx = stageTwiddleIndex(stage, j);
        return U128::fromParts(fwd_hi_[idx], fwd_lo_[idx]);
    }

    /** Inverse twiddle w^-1[s][j]. */
    U128
    twiddleInv(int stage, size_t j) const
    {
        size_t idx = stageTwiddleIndex(stage, j);
        return U128::fromParts(inv_hi_[idx], inv_lo_[idx]);
    }

    // Shared power tables (length n/2 each): pow[k] = omega^k and its
    // Shoup companion; likewise for omega^-k. Stage s addresses them
    // through stageTwiddleIndex().
    const uint64_t* twiddleHi() const { return fwd_hi_.data(); }
    const uint64_t* twiddleLo() const { return fwd_lo_.data(); }
    const uint64_t* twiddleShoupHi() const { return fwd_sh_hi_.data(); }
    const uint64_t* twiddleShoupLo() const { return fwd_sh_lo_.data(); }
    const uint64_t* twiddleInvHi() const { return inv_hi_.data(); }
    const uint64_t* twiddleInvLo() const { return inv_lo_.data(); }
    const uint64_t* twiddleInvShoupHi() const { return inv_sh_hi_.data(); }
    const uint64_t* twiddleInvShoupLo() const { return inv_sh_lo_.data(); }

    size_t half() const { return n_ / 2; }

    /**
     * Bytes of twiddle storage (for the paper's L2 discussion, §5.4):
     * 8 arrays (fwd/inv x value/Shoup x hi/lo) of n/2 words.
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
     * compact tables are cache-resident).
     */
    size_t bytesSweptPerTransform(StageFusion fusion) const;

  private:
    Modulus mod_;
    size_t n_ = 0;
    int logn_ = 0;
    U128 omega_{};
    U128 omega_inv_{};
    U128 n_inv_{};
    U128 n_inv_shoup_{};
    AlignedVec<uint64_t> fwd_hi_, fwd_lo_;
    AlignedVec<uint64_t> fwd_sh_hi_, fwd_sh_lo_;
    AlignedVec<uint64_t> inv_hi_, inv_lo_;
    AlignedVec<uint64_t> inv_sh_hi_, inv_sh_lo_;
};

/** In-place bit-reversal permutation of a split-layout vector. */
void bitReversePermute(DSpan data);

/** Bit-reversal of @p i within @p bits bits. */
size_t bitReverseIndex(size_t i, int bits);

} // namespace ntt
} // namespace mqx
