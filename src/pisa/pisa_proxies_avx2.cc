/**
 * @file
 * PISA validation, AVX2 pair (Table 5 row 1): the existing widening
 * multiply _mm256_mul_epu32 is the ground truth; the proxy build
 * replaces every occurrence inside the NTT's 64-bit widening multiply
 * with _mm256_mullo_epi32 — mirroring exactly how Table 3 models
 * _mm512_mul_epi64 with _mm512_mullo_epi64. Proxy results are wrong by
 * design; only timing is compared.
 */
#include "ntt/pease_impl.h"
#include "pisa/pisa.h"
#include "simd/isa_avx2.h"

namespace mqx {
namespace pisa {
namespace detail {

namespace {

/** Avx2Isa with the widening multiply's mul_epu32 swapped for mullo. */
struct Avx2ProxyMulIsa : simd::Avx2Isa
{
    static void
    mulWide(V a, V b, V& hi, V& lo)
    {
        const V mask32 = _mm256_set1_epi64x(0xffffffffll);
        V a_hi = _mm256_srli_epi64(a, 32);
        V b_hi = _mm256_srli_epi64(b, 32);
        // Proxy substitution: _mm256_mullo_epi32 in place of
        // _mm256_mul_epu32 (same operand shape, wrong numerics).
        V p0 = _mm256_mullo_epi32(a, b);
        V p1 = _mm256_mullo_epi32(a_hi, b);
        V p2 = _mm256_mullo_epi32(a, b_hi);
        V p3 = _mm256_mullo_epi32(a_hi, b_hi);
        V mid = _mm256_add_epi64(
            _mm256_add_epi64(_mm256_srli_epi64(p0, 32),
                             _mm256_and_si256(p1, mask32)),
            _mm256_and_si256(p2, mask32));
        hi = _mm256_add_epi64(
            _mm256_add_epi64(p3, _mm256_srli_epi64(mid, 32)),
            _mm256_add_epi64(_mm256_srli_epi64(p1, 32),
                             _mm256_srli_epi64(p2, 32)));
        lo = _mm256_or_si256(_mm256_and_si256(p0, mask32),
                             _mm256_slli_epi64(mid, 32));
    }
};

} // namespace

void
runAvx2WideningMulNtt(bool use_proxy, const ntt::NttPlan& plan, DConstSpan in,
                      DSpan out, DSpan scratch)
{
    if (use_proxy)
        ntt::barrettForwardImpl<Avx2ProxyMulIsa>(plan, in, out, scratch);
    else
        ntt::barrettForwardImpl<simd::Avx2Isa>(plan, in, out, scratch);
}

} // namespace detail
} // namespace pisa
} // namespace mqx
