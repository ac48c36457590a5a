/**
 * @file
 * Single-word (64-bit) modular kernels — the industry-standard mode of
 * CPU FHE libraries (Intel HEXL et al., paper Section 8: "the majority
 * of CPU-based solutions support only 32-bit or 64-bit arithmetic and
 * rely on RNS"). mqxlib's primary target is the 128-bit double-word
 * regime; this module is the single-word counterpart the benches set
 * against it, to measure how much the double-word arithmetic costs per
 * butterfly — the gap MQX exists to shrink.
 *
 * Kept to what that comparison needs: a q < 2^62 modulus (Barrett
 * mulMod for plan construction, Shoup multiply for the kernels), the
 * prime search, the plan, and one forward and one inverse Pease NTT.
 * The transforms run the double-word stack's Shoup-lazy steady state:
 * compact power-table twiddles with precomputed quotients
 * floor(w * 2^64 / q), lazy [0, 2q) butterfly operands (q < 2^62 leaves
 * two bits of headroom), and a single fused canonicalization in the
 * last stage / n^-1 scaling.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "core/aligned.h"
#include "core/backend.h"
#include "u128/u128.h"

namespace mqx {
namespace w64 {

/** A single-word modulus with Barrett precomputation. */
class Modulus64
{
  public:
    /** @throws InvalidArgument unless 2 <= q < 2^62. */
    explicit Modulus64(uint64_t q);

    uint64_t value() const { return q_; }

    uint64_t
    addMod(uint64_t a, uint64_t b) const
    {
        uint64_t s = a + b; // cannot wrap: a, b < q < 2^62
        return s >= q_ ? s - q_ : s;
    }

    uint64_t
    subMod(uint64_t a, uint64_t b) const
    {
        return a >= b ? a - b : a - b + q_;
    }

    /** Barrett-reduced product for a, b < q. */
    uint64_t
    mulMod(uint64_t a, uint64_t b) const
    {
        uint64_t p_hi = 0, p_lo = 0;
        mulWide64(a, b, p_hi, p_lo);
        // x1 = x >> (b-1); e = (x1 * mu) >> (b+1); c = lo(x) - e*q.
        uint64_t x1 = shift1_ >= 64
                          ? p_hi >> (shift1_ - 64)
                          : (p_lo >> shift1_) | (p_hi << (64 - shift1_));
        uint64_t e_hi = 0, e_lo = 0;
        mulWide64(x1, mu_, e_hi, e_lo);
        uint64_t e = shift2_ >= 64
                         ? e_hi >> (shift2_ - 64)
                         : (e_lo >> shift2_) | (e_hi << (64 - shift2_));
        uint64_t c = p_lo - e * q_;
        if (c >= q_)
            c -= q_;
        if (c >= q_)
            c -= q_;
        return c;
    }

    /**
     * Shoup companion wq = floor(w * 2^64 / q) for a fixed w < q, in
     * word arithmetic: w * 2^64 = wq * q + rho with
     * rho = w * (2^64 mod q) mod q, so wq = -rho * q^-1 mod 2^64 (the
     * 64-bit form of Modulus::shoupCompanion). No __int128 needed.
     *
     * @throws InvalidArgument unless q is odd and w < q.
     */
    uint64_t
    shoupCompanion(uint64_t w) const
    {
        checkArg((q_ & 1) != 0,
                 "Modulus64::shoupCompanion: modulus must be odd");
        checkArg(w < q_,
                 "Modulus64::shoupCompanion: multiplicand must be < q");
        return (0 - mulMod(w, r64_)) * q_inv_;
    }

    /**
     * Shoup multiply by fixed w with companion wq: r = a*w - h*q with
     * h = mulhi(a, wq); r is in [0, 2q) for ANY a (see
     * mod::mulModShoup for the estimate bound). No Barrett shifts, no
     * correction subtractions.
     */
    uint64_t
    mulModShoup(uint64_t a, uint64_t w, uint64_t wq) const
    {
        uint64_t h_hi = 0, h_lo = 0;
        mulWide64(a, wq, h_hi, h_lo);
        return a * w - h_hi * q_;
    }

    /** a^e mod q. */
    uint64_t powMod(uint64_t base, uint64_t exponent) const;

    /** Multiplicative inverse (q must be prime). */
    uint64_t inverse(uint64_t a) const;

  private:
    uint64_t q_ = 0;
    uint64_t mu_ = 0;
    unsigned shift1_ = 0; ///< b - 1
    unsigned shift2_ = 0; ///< b + 1
    uint64_t r64_ = 0;    ///< 2^64 mod q
    uint64_t q_inv_ = 0;  ///< q^-1 mod 2^64 (0 for even q)
};

/** Deterministic single-word NTT prime: q = c * 2^e + 1, b <= 62 bits. */
uint64_t findNttPrime64(int bits, int two_adicity);

/** Pease-NTT precomputation over a single-word modulus. */
class Ntt64Plan
{
  public:
    /**
     * @param q prime with n | q - 1
     * @param n power-of-two transform size
     */
    Ntt64Plan(uint64_t q, size_t n);

    const Modulus64& modulus() const { return mod_; }
    size_t n() const { return n_; }
    int logn() const { return logn_; }
    size_t half() const { return n_ / 2; }
    uint64_t omega() const { return omega_; }
    uint64_t nInv() const { return n_inv_; }
    uint64_t nInvShoup() const { return n_inv_shoup_; }

    /**
     * Compact twiddle addressing: ONE power table per direction,
     * pow[k] = omega^k for k < n/2, and stage s reads entry
     * (j >> s) << s — stage s touches only its n/2^(s+1) distinct
     * twiddles instead of streaming a stretched n/2 row.
     */
    static size_t
    stageTwiddleIndex(int stage, size_t j)
    {
        return (j >> stage) << stage;
    }

    /**
     * Shared second-layer index for fused radix-4 butterfly p of stage
     * pair (s, s+1).
     */
    static size_t
    stageTwiddlePair(int stage, size_t p)
    {
        return ((p >> stage) << stage) << 1;
    }

    const uint64_t* twiddle() const { return fwd_.data(); }
    const uint64_t* twiddleShoup() const { return fwd_sh_.data(); }
    const uint64_t* twiddleInv() const { return inv_.data(); }
    const uint64_t* twiddleInvShoup() const { return inv_sh_.data(); }

  private:
    Modulus64 mod_;
    size_t n_ = 0;
    int logn_ = 0;
    uint64_t omega_ = 0;
    uint64_t n_inv_ = 0;
    uint64_t n_inv_shoup_ = 0;
    AlignedVec<uint64_t> fwd_, inv_;
    AlignedVec<uint64_t> fwd_sh_, inv_sh_;
};

/**
 * Forward Pease NTT (natural -> bit-reversed), single-word residues.
 * Supported backends: Scalar, Portable, Avx512 (the tiers the comparison
 * bench needs). Each backend runs one kernel shape, its measured winner
 * (fused radix-4 on Scalar and AVX-512, radix-2 on Portable); all give
 * the same words as the double-word ntt::forward on the same q.
 *
 * @throws BackendUnavailable for any other backend
 * @throws InvalidArgument on null or aliased buffers
 */
void forward64(const Ntt64Plan& plan, Backend backend, const uint64_t* in,
               uint64_t* out, uint64_t* scratch);

/** Inverse Pease NTT (bit-reversed -> natural, scaled by n^-1). */
void inverse64(const Ntt64Plan& plan, Backend backend, const uint64_t* in,
               uint64_t* out, uint64_t* scratch);

} // namespace w64
} // namespace mqx
