/**
 * @file
 * AVX2 BLAS kernels (compiled with -mavx2).
 */
#include "blas/blas_backends.h"

#include "simd/batch_impl.h"
#include "simd/isa_avx2.h"

namespace mqx {
namespace blas {
namespace backends {

void
vaddAvx2(const Modulus& m, DConstSpan a, DConstSpan b, DSpan c)
{
    simd::vaddImpl<simd::Avx2Isa>(m, a, b, c);
}

void
vsubAvx2(const Modulus& m, DConstSpan a, DConstSpan b, DSpan c)
{
    simd::vsubImpl<simd::Avx2Isa>(m, a, b, c);
}

void
vmulAvx2(const Modulus& m, DConstSpan a, DConstSpan b, DSpan c)
{
    simd::vmulImpl<simd::Avx2Isa>(m, a, b, c);
}

void
vdotAvx2(const Modulus& m, const DConstSpan* a, const DConstSpan* b, size_t k,
         DSpan acc)
{
    simd::vdotImpl<simd::Avx2Isa>(m, a, b, k, acc);
}

void
axpyAvx2(const Modulus& m, const U128& alpha, DConstSpan x, DSpan y)
{
    simd::axpyImpl<simd::Avx2Isa>(m, alpha, x, y);
}


void
gemvAvx2(const Modulus& m, DConstSpan matrix, DConstSpan x, DSpan y,
         size_t rows, size_t cols)
{
    simd::gemvImpl<simd::Avx2Isa>(m, matrix, x, y, rows, cols);
}

} // namespace backends
} // namespace blas
} // namespace mqx
