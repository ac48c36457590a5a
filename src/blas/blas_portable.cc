/**
 * @file
 * Portable-ISA BLAS kernels (plain C++ model of the SIMD dataflow).
 */
#include "blas/blas_backends.h"

#include "simd/batch_impl.h"
#include "simd/isa_portable.h"

namespace mqx {
namespace blas {
namespace backends {

void
vaddPortable(const Modulus& m, DConstSpan a, DConstSpan b, DSpan c)
{
    simd::vaddImpl<simd::PortableIsa>(m, a, b, c);
}

void
vsubPortable(const Modulus& m, DConstSpan a, DConstSpan b, DSpan c)
{
    simd::vsubImpl<simd::PortableIsa>(m, a, b, c);
}

void
vmulPortable(const Modulus& m, DConstSpan a, DConstSpan b, DSpan c)
{
    simd::vmulImpl<simd::PortableIsa>(m, a, b, c);
}

void
vdotPortable(const Modulus& m, const DConstSpan* a, const DConstSpan* b,
             size_t k, DSpan acc)
{
    simd::vdotImpl<simd::PortableIsa>(m, a, b, k, acc);
}

void
axpyPortable(const Modulus& m, const U128& alpha, DConstSpan x, DSpan y)
{
    simd::axpyImpl<simd::PortableIsa>(m, alpha, x, y);
}


void
gemvPortable(const Modulus& m, DConstSpan matrix, DConstSpan x, DSpan y,
         size_t rows, size_t cols)
{
    simd::gemvImpl<simd::PortableIsa>(m, matrix, x, y, rows, cols);
}

} // namespace backends
} // namespace blas
} // namespace mqx
