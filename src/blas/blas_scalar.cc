/**
 * @file
 * Scalar BLAS kernels using the native 128-bit modular arithmetic
 * (Section 3.1's benchmarking variant).
 */
#include "blas/blas_backends.h"

#include "simd/batch_impl.h"

namespace mqx {
namespace blas {
namespace backends {

void
vaddScalar(const Modulus& m, DConstSpan a, DConstSpan b, DSpan c)
{
    checkArg(a.n == b.n && a.n == c.n, "vadd: length mismatch");
    for (size_t i = 0; i < a.n; ++i) {
        U128 r = m.add(U128::fromParts(a.hi[i], a.lo[i]),
                       U128::fromParts(b.hi[i], b.lo[i]));
        c.hi[i] = r.hi;
        c.lo[i] = r.lo;
    }
}

void
vsubScalar(const Modulus& m, DConstSpan a, DConstSpan b, DSpan c)
{
    checkArg(a.n == b.n && a.n == c.n, "vsub: length mismatch");
    for (size_t i = 0; i < a.n; ++i) {
        U128 r = m.sub(U128::fromParts(a.hi[i], a.lo[i]),
                       U128::fromParts(b.hi[i], b.lo[i]));
        c.hi[i] = r.hi;
        c.lo[i] = r.lo;
    }
}

void
vmulScalar(const Modulus& m, DConstSpan a, DConstSpan b, DSpan c)
{
    checkArg(a.n == b.n && a.n == c.n, "vmul: length mismatch");
    const auto& br = m.barrett();
    for (size_t i = 0; i < a.n; ++i) {
        mod::DW<uint64_t> da{a.hi[i], a.lo[i]}, db{b.hi[i], b.lo[i]};
        auto r = mod::mulModSchool(da, db, br);
        c.hi[i] = r.hi;
        c.lo[i] = r.lo;
    }
}

void
vdotScalar(const Modulus& m, const DConstSpan* a, const DConstSpan* b,
           size_t k, DSpan acc)
{
    simd::vdotScalarImpl(m, a, b, k, acc);
}

void
axpyScalar(const Modulus& m, const U128& alpha, DConstSpan x, DSpan y)
{
    checkArg(x.n == y.n, "axpy: length mismatch");
    const auto& br = m.barrett();
    const mod::DW<uint64_t> da = mod::toDw(alpha);
    for (size_t i = 0; i < x.n; ++i) {
        mod::DW<uint64_t> dx{x.hi[i], x.lo[i]};
        auto t = mod::mulModSchool(da, dx, br);
        U128 r = m.add(mod::fromDw(t), U128::fromParts(y.hi[i], y.lo[i]));
        y.hi[i] = r.hi;
        y.lo[i] = r.lo;
    }
}


void
gemvScalar(const Modulus& m, DConstSpan matrix, DConstSpan x, DSpan y,
           size_t rows, size_t cols)
{
    checkArg(matrix.n == rows * cols, "gemv: matrix size mismatch");
    checkArg(x.n == cols && y.n == rows, "gemv: vector size mismatch");
    const auto& br = m.barrett();
    for (size_t r = 0; r < rows; ++r) {
        const uint64_t* row_hi = matrix.hi + r * cols;
        const uint64_t* row_lo = matrix.lo + r * cols;
        U128 acc{0};
        for (size_t j = 0; j < cols; ++j) {
            mod::DW<uint64_t> da{row_hi[j], row_lo[j]};
            mod::DW<uint64_t> dx{x.hi[j], x.lo[j]};
            auto t = mod::mulModSchool(da, dx, br);
            acc = m.add(acc, mod::fromDw(t));
        }
        y.hi[r] = acc.hi;
        y.lo[r] = acc.lo;
    }
}

} // namespace backends
} // namespace blas
} // namespace mqx
