/**
 * @file
 * Batch (whole-vector) double-word modular kernels templated over a SIMD
 * ISA policy. These are the building blocks of the BLAS layer (paper
 * Section 2.3: "BLAS operations are essentially vector-based modular
 * arithmetic ... implemented by looping over scalar or SIMD modular
 * arithmetic").
 *
 * Each batch function processes full SIMD blocks and finishes any
 * remainder with the scalar double-word ops, so arbitrary lengths work
 * (the paper assumes power-of-two lengths that are multiples of the lane
 * count; we do not need to).
 */
#pragma once

#include <algorithm>
#include <utility>

#include "core/residue_span.h"
#include "simd/dw_kernels.h"

namespace mqx {
namespace simd {

/** c[i] = a[i] + b[i] mod q. */
template <class Isa>
void
vaddImpl(const Modulus& m, DConstSpan a, DConstSpan b, DSpan c)
{
    checkArg(a.n == b.n && a.n == c.n, "vadd: length mismatch");
    ModCtx<Isa> ctx = makeModCtx<Isa>(m);
    size_t i = 0;
    for (; i + Isa::kLanes <= a.n; i += Isa::kLanes) {
        DV<Isa> va = loadDv<Isa>(a.hi, a.lo, i);
        DV<Isa> vb = loadDv<Isa>(b.hi, b.lo, i);
        storeDv<Isa>(c.hi, c.lo, i, addModV<Isa>(ctx, va, vb));
    }
    mod::DW<uint64_t> q = mod::toDw(m.value());
    for (; i < a.n; ++i) {
        auto r = mod::addMod(mod::DW<uint64_t>{a.hi[i], a.lo[i]},
                             mod::DW<uint64_t>{b.hi[i], b.lo[i]}, q);
        c.hi[i] = r.hi;
        c.lo[i] = r.lo;
    }
}

/** c[i] = a[i] - b[i] mod q. */
template <class Isa>
void
vsubImpl(const Modulus& m, DConstSpan a, DConstSpan b, DSpan c)
{
    checkArg(a.n == b.n && a.n == c.n, "vsub: length mismatch");
    ModCtx<Isa> ctx = makeModCtx<Isa>(m);
    size_t i = 0;
    for (; i + Isa::kLanes <= a.n; i += Isa::kLanes) {
        DV<Isa> va = loadDv<Isa>(a.hi, a.lo, i);
        DV<Isa> vb = loadDv<Isa>(b.hi, b.lo, i);
        storeDv<Isa>(c.hi, c.lo, i, subModV<Isa>(ctx, va, vb));
    }
    mod::DW<uint64_t> q = mod::toDw(m.value());
    for (; i < a.n; ++i) {
        auto r = mod::subMod(mod::DW<uint64_t>{a.hi[i], a.lo[i]},
                             mod::DW<uint64_t>{b.hi[i], b.lo[i]}, q);
        c.hi[i] = r.hi;
        c.lo[i] = r.lo;
    }
}

/** c[i] = a[i] * b[i] mod q (point-wise vector multiplication). */
template <class Isa>
void
vmulImpl(const Modulus& m, DConstSpan a, DConstSpan b, DSpan c)
{
    checkArg(a.n == b.n && a.n == c.n, "vmul: length mismatch");
    ModCtx<Isa> ctx = makeModCtx<Isa>(m);
    size_t i = 0;
    for (; i + Isa::kLanes <= a.n; i += Isa::kLanes) {
        DV<Isa> va = loadDv<Isa>(a.hi, a.lo, i);
        DV<Isa> vb = loadDv<Isa>(b.hi, b.lo, i);
        storeDv<Isa>(c.hi, c.lo, i, mulModV<Isa>(ctx, va, vb));
    }
    const auto& br = m.barrett();
    for (; i < a.n; ++i) {
        mod::DW<uint64_t> da{a.hi[i], a.lo[i]}, db{b.hi[i], b.lo[i]};
        auto r = mod::mulModSchool(da, db, br);
        c.hi[i] = r.hi;
        c.lo[i] = r.lo;
    }
}

/**
 * y[r] = sum_j A[r][j] * x[j] mod q — modular general matrix-vector
 * product (BLAS-2 gemv; the paper notes point-wise vector
 * multiplication is its diagonal special case, Section 2.3). A is
 * row-major, rows x cols, split hi/lo like every residue container.
 * Per row: SIMD blocks of mulmod feed a lane accumulator (modular adds
 * never overflow because every partial stays < q), then the lanes are
 * folded scalar.
 */
template <class Isa>
void
gemvImpl(const Modulus& m, DConstSpan matrix, DConstSpan x, DSpan y,
         size_t rows, size_t cols)
{
    checkArg(matrix.n == rows * cols, "gemv: matrix size mismatch");
    checkArg(x.n == cols && y.n == rows, "gemv: vector size mismatch");
    ModCtx<Isa> ctx = makeModCtx<Isa>(m);
    const auto& br = m.barrett();
    mod::DW<uint64_t> q = mod::toDw(m.value());

    for (size_t r = 0; r < rows; ++r) {
        const uint64_t* row_hi = matrix.hi + r * cols;
        const uint64_t* row_lo = matrix.lo + r * cols;
        DV<Isa> acc{Isa::set1(0), Isa::set1(0)};
        size_t j = 0;
        for (; j + Isa::kLanes <= cols; j += Isa::kLanes) {
            DV<Isa> va = loadDv<Isa>(row_hi, row_lo, j);
            DV<Isa> vx = loadDv<Isa>(x.hi, x.lo, j);
            DV<Isa> t = mulModV<Isa>(ctx, va, vx);
            acc = addModV<Isa>(ctx, acc, t);
        }
        // Fold the lane accumulator, then the scalar tail.
        alignas(64) uint64_t acc_hi[Isa::kLanes], acc_lo[Isa::kLanes];
        Isa::storeu(acc_hi, acc.hi);
        Isa::storeu(acc_lo, acc.lo);
        mod::DW<uint64_t> sum{0, 0};
        for (size_t lane = 0; lane < Isa::kLanes; ++lane) {
            sum = mod::addMod(sum, mod::DW<uint64_t>{acc_hi[lane],
                                                     acc_lo[lane]},
                              q);
        }
        for (; j < cols; ++j) {
            mod::DW<uint64_t> da{row_hi[j], row_lo[j]};
            mod::DW<uint64_t> dx{x.hi[j], x.lo[j]};
            auto t = mod::mulModSchool(da, dx, br);
            sum = mod::addMod(sum, t, q);
        }
        y.hi[r] = sum.hi;
        y.lo[r] = sum.lo;
    }
}

/** The argument checks every vdot kernel runs first. */
inline void
checkVdotArgs(const DConstSpan* a, const DConstSpan* b, size_t k, DSpan acc)
{
    checkArg(k == 0 || (a != nullptr && b != nullptr),
             "vdot: null operand list");
    for (size_t j = 0; j < k; ++j)
        checkArg(a[j].n == acc.n && b[j].n == acc.n,
                 "vdot: length mismatch");
}

/**
 * vdotImpl's element loop from index @p begin: one scalar Barrett
 * product and modular add per pair (every SIMD tier's tail).
 */
inline void
vdotTail(const Modulus& m, const DConstSpan* a, const DConstSpan* b,
         size_t k, DSpan acc, size_t begin)
{
    const auto& br = m.barrett();
    mod::DW<uint64_t> q = mod::toDw(m.value());
    for (size_t i = begin; i < acc.n; ++i) {
        mod::DW<uint64_t> s{acc.hi[i], acc.lo[i]};
        for (size_t j = 0; j < k; ++j) {
            mod::DW<uint64_t> da{a[j].hi[i], a[j].lo[i]};
            mod::DW<uint64_t> db{b[j].hi[i], b[j].lo[i]};
            s = mod::addMod(s, mod::mulModSchool(da, db, br), q);
        }
        acc.hi[i] = s.hi;
        acc.lo[i] = s.lo;
    }
}

/**
 * acc[i] = acc[i] + sum_j a[j][i] * b[j][i] mod q over @p k pairs of
 * canonical vectors: the point-wise dot product of a transform-domain
 * fma. Per block, the running sum stays in registers across the pairs.
 * On IFMA ISAs with an odd q the products go into carry-free 52-bit
 * columns and fold once per kDotFoldPairs pairs (dotFoldIfmaV); every
 * other case keeps one modular product and add per pair. Exact
 * arithmetic mod q makes both word-identical to k vmul + vadd passes.
 * acc may exactly alias any input (each block is loaded before it is
 * stored).
 */
template <class Isa>
void
vdotImpl(const Modulus& m, const DConstSpan* a, const DConstSpan* b,
         size_t k, DSpan acc)
{
    checkVdotArgs(a, b, k, acc);
    ModCtx<Isa> ctx = makeModCtx<Isa>(m);
    size_t i = 0;
    auto pairAt = [&](size_t j) {
        return std::pair{loadDv<Isa>(a[j].hi, a[j].lo, i),
                         loadDv<Isa>(b[j].hi, b[j].lo, i)};
    };
    bool lazy = false;
    if constexpr (Isa::kHasIfma) {
        lazy = (m.value().lo & 1) != 0;
        if (lazy) {
            const DotFold<Isa> fold = makeDotFold<Isa>(m);
            for (; i + Isa::kLanes <= acc.n; i += Isa::kLanes) {
                DV<Isa> s = loadDv<Isa>(acc.hi, acc.lo, i);
                for (size_t j0 = 0; j0 < k; j0 += kDotFoldPairs) {
                    const size_t j1 = std::min(k, j0 + kDotFoldPairs);
                    DotColumns<Isa> cols = dotColumnsFrom<Isa>(ctx.ifma, s);
                    for (size_t j = j0; j < j1; ++j) {
                        const auto [va, vb] = pairAt(j);
                        dotAddProductIfma<Isa>(cols, toLimbs52<Isa>(va),
                                               toLimbs52<Isa>(vb));
                    }
                    s = dotFoldIfmaV<Isa>(ctx, fold, cols);
                }
                storeDv<Isa>(acc.hi, acc.lo, i, s);
            }
        }
    }
    if (!lazy) {
        for (; i + Isa::kLanes <= acc.n; i += Isa::kLanes) {
            DV<Isa> s = loadDv<Isa>(acc.hi, acc.lo, i);
            for (size_t j = 0; j < k; ++j) {
                const auto [va, vb] = pairAt(j);
                s = addModV<Isa>(ctx, s, mulModV<Isa>(ctx, va, vb));
            }
            storeDv<Isa>(acc.hi, acc.lo, i, s);
        }
    }
    vdotTail(m, a, b, k, acc, i);
}

/** The Scalar tier's vdot: vdotTail over the whole vector. */
inline void
vdotScalarImpl(const Modulus& m, const DConstSpan* a, const DConstSpan* b,
               size_t k, DSpan acc)
{
    checkVdotArgs(a, b, k, acc);
    vdotTail(m, a, b, k, acc, 0);
}

/** y[i] = alpha * x[i] + y[i] mod q (BLAS-1 axpy, Section 2.3). */
template <class Isa>
void
axpyImpl(const Modulus& m, const U128& alpha, DConstSpan x, DSpan y)
{
    checkArg(x.n == y.n, "axpy: length mismatch");
    ModCtx<Isa> ctx = makeModCtx<Isa>(m);
    DV<Isa> va{Isa::set1(alpha.hi), Isa::set1(alpha.lo)};
    size_t i = 0;
    for (; i + Isa::kLanes <= x.n; i += Isa::kLanes) {
        DV<Isa> vx = loadDv<Isa>(x.hi, x.lo, i);
        DV<Isa> vy = loadDv<Isa>(y.hi, y.lo, i);
        DV<Isa> t = mulModV<Isa>(ctx, va, vx);
        storeDv<Isa>(y.hi, y.lo, i, addModV<Isa>(ctx, t, vy));
    }
    const auto& br = m.barrett();
    mod::DW<uint64_t> q = mod::toDw(m.value());
    mod::DW<uint64_t> da = mod::toDw(alpha);
    for (; i < x.n; ++i) {
        mod::DW<uint64_t> dx{x.hi[i], x.lo[i]}, dy{y.hi[i], y.lo[i]};
        auto t = mod::mulModSchool(da, dx, br);
        auto r = mod::addMod(t, dy, q);
        y.hi[i] = r.hi;
        y.lo[i] = r.lo;
    }
}

} // namespace simd
} // namespace mqx
