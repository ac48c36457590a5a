/**
 * @file
 * Single-word modulus, plan construction, scalar/portable kernels, and
 * backend dispatch for the 64-bit mode.
 */
#include "word64/word64.h"

#include "ntt/prime.h"
#include "simd/isa_portable.h"
#include "word64/ntt64_impl.h"

namespace mqx {
namespace w64 {

Modulus64::Modulus64(uint64_t q) : q_(q)
{
    checkArg(q >= 2, "Modulus64: modulus must be >= 2");
    const int bits = bitLength64(q);
    checkArg(bits <= 62, "Modulus64: modulus exceeds 62 bits (Barrett)");
    // mu = floor(2^2b / q) fits 64 bits for b <= 62 (mu < 2^(b+1)).
    U128 mu, rem;
    divmod128(U128{1} << (2 * bits), U128{q}, mu, rem);
    mu_ = mu.lo;
    shift1_ = static_cast<unsigned>(bits - 1);
    shift2_ = static_cast<unsigned>(bits + 1);
    r64_ = (0 - q) % q;
    // Newton's step x <- x (2 - q x) doubles the correct low bits of
    // q^-1 mod 2^64 from the 3 of x = q (q^2 = 1 mod 8 for odd q).
    if ((q & 1) != 0) {
        uint64_t x = q;
        for (int i = 0; i < 5; ++i)
            x *= 2 - q * x;
        q_inv_ = x;
    }
}

uint64_t
Modulus64::powMod(uint64_t base, uint64_t exponent) const
{
    uint64_t b = base % q_;
    uint64_t result = 1 % q_;
    for (int i = bitLength64(exponent) - 1; i >= 0; --i) {
        result = mulMod(result, result);
        if ((exponent >> i) & 1)
            result = mulMod(result, b);
    }
    return result;
}

uint64_t
Modulus64::inverse(uint64_t a) const
{
    checkArg(a % q_ != 0, "Modulus64::inverse: zero has no inverse");
    uint64_t inv = powMod(a, q_ - 2);
    checkArg(mulMod(inv, a % q_) == 1, "Modulus64::inverse: q not prime");
    return inv;
}

uint64_t
findNttPrime64(int bits, int two_adicity)
{
    checkArg(bits <= 62, "findNttPrime64: bits must be <= 62");
    // Reuse the 128-bit searcher; the result fits one word.
    return ntt::findNttPrime(bits, two_adicity).q.lo;
}

Ntt64Plan::Ntt64Plan(uint64_t q, size_t n) : mod_(q), n_(n)
{
    checkArg(n >= 2 && (n & (n - 1)) == 0,
             "Ntt64Plan: n must be a power of two >= 2");
    for (size_t t = n; t > 1; t >>= 1)
        ++logn_;
    checkArg(ntt::isPrime(U128{q}), "Ntt64Plan: modulus must be prime");

    // Root search through the generic 128-bit machinery (setup path);
    // all values fit a single word.
    Modulus wide(U128{q});
    omega_ = ntt::rootOfUnity(wide, U128{static_cast<uint64_t>(n)}).lo;
    n_inv_ = mod_.inverse(static_cast<uint64_t>(n % q));

    uint64_t omega_inv = mod_.inverse(omega_);
    size_t h = half();
    // Compact power tables (one entry per distinct twiddle) plus their
    // Shoup companions; stage s addresses them via stageTwiddleIndex().
    fwd_.reset(h);
    inv_.reset(h);
    fwd_sh_.reset(h);
    inv_sh_.reset(h);
    uint64_t acc_f = 1, acc_i = 1;
    for (size_t i = 0; i < h; ++i) {
        fwd_[i] = acc_f;
        inv_[i] = acc_i;
        fwd_sh_[i] = mod_.shoupCompanion(acc_f);
        inv_sh_[i] = mod_.shoupCompanion(acc_i);
        acc_f = mod_.mulMod(acc_f, omega_);
        acc_i = mod_.mulMod(acc_i, omega_inv);
    }
    n_inv_shoup_ = mod_.shoupCompanion(n_inv_);
}

// AVX-512 entries (word64_avx512.cc).
namespace detail {
void forward64Avx512(const Ntt64Plan&, const uint64_t*, uint64_t*,
                     uint64_t*);
void inverse64Avx512(const Ntt64Plan&, const uint64_t*, uint64_t*,
                     uint64_t*);
} // namespace detail

namespace {

void
validate(const uint64_t* in, const uint64_t* out, const uint64_t* scratch)
{
    checkArg(in && out && scratch, "ntt64: null buffer");
    checkArg(in != out && in != scratch && out != scratch,
             "ntt64: buffers must be distinct");
}

/**
 * Scalar fused radix-4 forward: the lazy radix-2 pass first when logn
 * is odd, then forwardButterfly64Lazy4Core per stage pair.
 */
void
forward64ScalarLazy4(const Ntt64Plan& plan, const uint64_t* in,
                     uint64_t* out, uint64_t* scratch)
{
    const size_t h = plan.half();
    const size_t h2 = h / 2;
    const int m = plan.logn();
    const Modulus64& mod = plan.modulus();
    const uint64_t q = mod.value();
    const uint64_t q2 = 2 * q;
    const uint64_t* tw = plan.twiddle();
    const uint64_t* twq = plan.twiddleShoup();
    uint64_t* bufs[2] = {out, scratch};
    const int passes = (m + 1) / 2;
    int target = (passes % 2 == 1) ? 0 : 1;
    const uint64_t* src = in;
    int s = 0;
    if (m % 2 == 1) {
        forwardStage64Tail(plan, src, bufs[target], 0, 0, m == 1);
        src = bufs[target];
        target ^= 1;
        s = 1;
    }
    for (; s + 1 < m; s += 2) {
        const bool last = s + 2 == m;
        uint64_t* dst = bufs[target];
        // Run-split twiddle hoisting, mirroring the double-word scalar
        // kernel: the three twiddles are constant per 2^s-run and the
        // compiler cannot hoist the loads past the dst stores.
        const size_t run = size_t{1} << s;
        for (size_t base = 0; base < h2; base += run) {
            const size_t e0 = base, e1 = base + h2, eb = 2 * base;
            const uint64_t w0 = tw[e0], w0q = twq[e0];
            const uint64_t w1 = tw[e1], w1q = twq[e1];
            const uint64_t wb = tw[eb], wbq = twq[eb];
            for (size_t p = base; p < base + run; ++p)
                forwardButterfly64Lazy4Core(mod, q, q2, src, dst, w0, w0q,
                                            w1, w1q, wb, wbq, p, h, last);
        }
        src = dst;
        target ^= 1;
    }
}

/** Scalar fused radix-4 inverse + the n^-1 Shoup scaling pass. */
void
inverse64ScalarLazy4(const Ntt64Plan& plan, const uint64_t* in,
                     uint64_t* out, uint64_t* scratch)
{
    const size_t h = plan.half();
    const size_t h2 = h / 2;
    const int m = plan.logn();
    const Modulus64& mod = plan.modulus();
    const uint64_t q2 = 2 * mod.value();
    const uint64_t* tw = plan.twiddleInv();
    const uint64_t* twq = plan.twiddleInvShoup();
    uint64_t* bufs[2] = {out, scratch};
    const int passes = (m + 1) / 2;
    int target = (passes % 2 == 1) ? 0 : 1;
    const uint64_t* src = in;
    int s = m - 1;
    for (; s >= 1; s -= 2) {
        const int sl = s - 1;
        uint64_t* dst = bufs[target];
        const size_t run = size_t{1} << sl;
        for (size_t base = 0; base < h2; base += run) {
            const size_t e0 = base, e1 = base + h2, eb = 2 * base;
            const uint64_t w0 = tw[e0], w0q = twq[e0];
            const uint64_t w1 = tw[e1], w1q = twq[e1];
            const uint64_t wb = tw[eb], wbq = twq[eb];
            for (size_t p = base; p < base + run; ++p)
                inverseButterfly64Lazy4Core(mod, q2, src, dst, w0, w0q, w1,
                                            w1q, wb, wbq, p, h);
        }
        src = dst;
        target ^= 1;
    }
    if (s == 0)
        inverseStage64Tail(plan, src, bufs[target], 0, 0);
    scaleNInv64Tail(plan, out, 0);
}

/** The forward/inverse pair one backend runs. */
struct Kernels64
{
    decltype(&forward64ScalarLazy4) forward;
    decltype(&inverse64ScalarLazy4) inverse;
};

// One kernel shape per backend: the faster of radix-2 and fused
// radix-4 in paired timings (31 alternated fwd+inv pairs per cell,
// Intel Xeon with AVX-512 IFMA, two runs; median radix-2 time over
// radix-4 time minus one, in %):
//
//   backend    n=1024        n=4096        n=32768
//   Scalar     +25 / +28     +25 / +28     -7 / -2
//   Portable   -10 /  -8      -1 / -19    -23 / -24
//   AVX-512     +6 /  +7     +11 / +13     +8 / +11
//
// So Scalar and AVX-512 run fused radix-4 and Portable runs radix-2.
// Scalar at n = 32768 pays ~2-7% for it; no caller runs that cell, and
// per-n selection would keep a second Scalar kernel for it. Barrett
// butterflies were 1.8-5.0x slower than radix-4 in every cell, so no
// kernel uses them (Modulus64::mulMod serves plan construction).
const Kernels64&
kernels64(Backend backend)
{
    static const Kernels64 scalar{&forward64ScalarLazy4,
                                  &inverse64ScalarLazy4};
    static const Kernels64 portable{&forward64LazyImpl<simd::PortableIsa>,
                                    &inverse64LazyImpl<simd::PortableIsa>};
    switch (backend) {
      case Backend::Scalar:
        return scalar;
      case Backend::Portable:
        return portable;
#if MQX_BUILD_AVX512
      case Backend::Avx512: {
        static const Kernels64 avx512{&detail::forward64Avx512,
                                      &detail::inverse64Avx512};
        if (backendAvailable(Backend::Avx512))
            return avx512;
        break;
      }
#endif
      default:
        break;
    }
    throw BackendUnavailable(
        "word64 kernels support Scalar/Portable/Avx512; got " +
        backendName(backend));
}

} // namespace

void
forward64(const Ntt64Plan& plan, Backend backend, const uint64_t* in,
          uint64_t* out, uint64_t* scratch)
{
    validate(in, out, scratch);
    kernels64(backend).forward(plan, in, out, scratch);
}

void
inverse64(const Ntt64Plan& plan, Backend backend, const uint64_t* in,
          uint64_t* out, uint64_t* scratch)
{
    validate(in, out, scratch);
    kernels64(backend).inverse(plan, in, out, scratch);
}

} // namespace w64
} // namespace mqx
