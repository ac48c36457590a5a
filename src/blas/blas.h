/**
 * @file
 * BLAS-style point-wise kernels over Z_q residue vectors (paper
 * Section 2.3 / 5.3): vector addition, vector subtraction, point-wise
 * vector multiplication, and axpy. Each is available on every backend
 * tier the paper evaluates.
 *
 * Vectors use the split hi/lo layout (core/residue_span.h); lengths are
 * arbitrary (the paper benchmarks length 1024).
 *
 * Aliasing: the output span may EXACTLY alias an input span (c == a or
 * c == b, in-place operation) — every backend processes one block (or
 * one element) at a time and loads its inputs before storing the
 * result. Partial overlaps are undefined; the layer above
 * (ntt::NegacyclicEngine's span API) rejects them.
 */
#pragma once

#include "core/backend.h"
#include "core/residue_span.h"
#include "mod/modulus.h"

namespace mqx {
namespace blas {

/** The four benchmarked operations (Fig. 4). */
enum class Op
{
    VectorAdd,
    VectorSub,
    VectorMul,
    Axpy,
};

/** Figure-4 label for @p op. */
std::string opName(Op op);

/** c[i] = a[i] + b[i] mod q. @throws BackendUnavailable, InvalidArgument. */
void vadd(Backend backend, const Modulus& m, DConstSpan a, DConstSpan b,
          DSpan c);

/** c[i] = a[i] - b[i] mod q. */
void vsub(Backend backend, const Modulus& m, DConstSpan a, DConstSpan b,
          DSpan c);

/** c[i] = a[i] * b[i] mod q (point-wise). */
void vmul(Backend backend, const Modulus& m, DConstSpan a, DConstSpan b,
          DSpan c);

/**
 * acc[i] = acc[i] + sum_{j < k} a[j][i] * b[j][i] mod q: the point-wise
 * dot product of k vector pairs, for a transform-domain fma (k
 * forward-transformed pairs summed before one inverse). Entries must be
 * canonical (< q). The AVX-512 IFMA kernel sums each coefficient's
 * products in carry-free 52-bit columns and reduces once per 15 pairs;
 * the other tiers reduce every product. Words equal k vmul + vadd
 * passes. acc may exactly alias any input.
 */
void vdot(Backend backend, const Modulus& m, const DConstSpan* a,
          const DConstSpan* b, size_t k, DSpan acc);

/** y[i] = alpha * x[i] + y[i] mod q. */
void axpy(Backend backend, const Modulus& m, const U128& alpha, DConstSpan x,
          DSpan y);

/**
 * y = A x mod q (BLAS-2 gemv; Section 2.3 frames point-wise vector
 * multiplication as its special case). @p matrix is row-major
 * rows x cols in split hi/lo layout.
 */
void gemv(Backend backend, const Modulus& m, DConstSpan matrix, DConstSpan x,
          DSpan y, size_t rows, size_t cols);

/**
 * Run @p op through the common 3-operand shape used by the benchmark
 * harness (axpy takes a[0] as alpha and writes into c, which must hold a
 * copy of b).
 */
void runOp(Op op, Backend backend, const Modulus& m, DConstSpan a,
           DConstSpan b, DSpan c);

} // namespace blas
} // namespace mqx
