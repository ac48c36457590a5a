/**
 * @file
 * PISA validation, AVX-512 pairs (Table 5 rows 2-3): masked add/subtract
 * are the ground-truth instructions inside the NTT; the proxy builds
 * replace them with the plain add/subtract. Mirrors the conservative
 * methodology used for MQX's adc/sbb proxies: "we insert an extra
 * instruction and guard the output with volatile to preserve data
 * dependencies on the mask register" — here the proxy op simply ignores
 * the mask (wrong values, same instruction class and count).
 */
#include "ntt/pease_impl.h"
#include "pisa/pisa.h"
#include "simd/isa_avx512.h"

namespace mqx {
namespace pisa {
namespace detail {

namespace {

/** Avx512Isa with maskAdd proxied by the plain vector add. */
struct ProxyMaskAddIsa : simd::Avx512Isa
{
    static V
    maskAdd(V src, M m, V a, V b)
    {
        (void)src;
        (void)m;
        return _mm512_add_epi64(a, b);
    }
};

/** Avx512Isa with maskSub proxied by the plain vector subtract. */
struct ProxyMaskSubIsa : simd::Avx512Isa
{
    static V
    maskSub(V src, M m, V a, V b)
    {
        (void)src;
        (void)m;
        return _mm512_sub_epi64(a, b);
    }
};

} // namespace

void
runAvx512MaskAddNtt(bool use_proxy, const ntt::NttPlan& plan, DConstSpan in,
                    DSpan out, DSpan scratch)
{
    if (use_proxy)
        ntt::barrettForwardImpl<ProxyMaskAddIsa>(plan, in, out, scratch);
    else
        ntt::barrettForwardImpl<simd::Avx512Isa>(plan, in, out, scratch);
}

void
runAvx512MaskSubNtt(bool use_proxy, const ntt::NttPlan& plan, DConstSpan in,
                    DSpan out, DSpan scratch)
{
    if (use_proxy)
        ntt::barrettForwardImpl<ProxyMaskSubIsa>(plan, in, out, scratch);
    else
        ntt::barrettForwardImpl<simd::Avx512Isa>(plan, in, out, scratch);
}

} // namespace detail
} // namespace pisa
} // namespace mqx
