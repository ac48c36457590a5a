/**
 * @file
 * MQX BLAS kernels: Table-2 emulation (correct) and PISA proxy (timing)
 * modes, full feature set.
 */
#include "blas/blas_backends.h"

#include "mqxisa/isa_mqx.h"
#include "simd/batch_impl.h"

namespace mqx {
namespace blas {
namespace backends {

namespace {

using mqxisa::MqxIsa;
using mqxisa::MqxMode;

using EmuIsa = MqxIsa<MqxMode::Emulate>;
using PisaIsa = MqxIsa<MqxMode::Pisa>;

} // namespace

void
vaddMqx(bool pisa, const Modulus& m, DConstSpan a, DConstSpan b, DSpan c)
{
    if (pisa)
        simd::vaddImpl<PisaIsa>(m, a, b, c);
    else
        simd::vaddImpl<EmuIsa>(m, a, b, c);
}

void
vsubMqx(bool pisa, const Modulus& m, DConstSpan a, DConstSpan b, DSpan c)
{
    if (pisa)
        simd::vsubImpl<PisaIsa>(m, a, b, c);
    else
        simd::vsubImpl<EmuIsa>(m, a, b, c);
}

void
vmulMqx(bool pisa, const Modulus& m, DConstSpan a, DConstSpan b, DSpan c)
{
    if (pisa)
        simd::vmulImpl<PisaIsa>(m, a, b, c);
    else
        simd::vmulImpl<EmuIsa>(m, a, b, c);
}

void
vdotMqx(bool pisa, const Modulus& m, const DConstSpan* a, const DConstSpan* b,
        size_t k, DSpan acc)
{
    if (pisa)
        simd::vdotImpl<PisaIsa>(m, a, b, k, acc);
    else
        simd::vdotImpl<EmuIsa>(m, a, b, k, acc);
}

void
axpyMqx(bool pisa, const Modulus& m, const U128& alpha, DConstSpan x, DSpan y)
{
    if (pisa)
        simd::axpyImpl<PisaIsa>(m, alpha, x, y);
    else
        simd::axpyImpl<EmuIsa>(m, alpha, x, y);
}


void
gemvMqx(bool pisa, const Modulus& m, DConstSpan matrix, DConstSpan x, DSpan y,
        size_t rows, size_t cols)
{
    if (pisa)
        simd::gemvImpl<PisaIsa>(m, matrix, x, y, rows, cols);
    else
        simd::gemvImpl<EmuIsa>(m, matrix, x, y, rows, cols);
}

} // namespace backends
} // namespace blas
} // namespace mqx
