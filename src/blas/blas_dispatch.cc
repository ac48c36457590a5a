/**
 * @file
 * Public BLAS dispatch over the backend tiers: one kernel table per
 * backend (backends::tierKernels), as ntt.cc resolves its transforms.
 */
#include "blas/blas.h"

#include "blas/blas_backends.h"
#include "core/config.h"

namespace mqx {
namespace blas {
namespace backends {

const TierKernels&
tierKernels(Backend backend)
{
    if (!backendAvailable(backend)) {
        throw BackendUnavailable("BLAS backend not available on this host: " +
                                 backendName(backend));
    }
    static const TierKernels scalar{&vaddScalar, &vsubScalar, &vmulScalar,
                                    &vdotScalar, &axpyScalar, &gemvScalar};
    static const TierKernels portable{&vaddPortable, &vsubPortable,
                                      &vmulPortable, &vdotPortable,
                                      &axpyPortable, &gemvPortable};
    switch (backend) {
      case Backend::Scalar:
        return scalar;
      case Backend::Portable:
        return portable;
#if MQX_BUILD_AVX2
      case Backend::Avx2: {
        static const TierKernels avx2{&vaddAvx2, &vsubAvx2, &vmulAvx2,
                                      &vdotAvx2, &axpyAvx2, &gemvAvx2};
        return avx2;
      }
#endif
#if MQX_BUILD_AVX512
      case Backend::Avx512: {
        // One tier body, IFMA multiplies where CPUID has them.
        static const TierKernels avx512{&vaddAvx512, &vsubAvx512,
                                        &vmulAvx512, &vdotAvx512,
                                        &axpyAvx512, &gemvAvx512};
#if MQX_BUILD_AVX512_IFMA
        static const TierKernels avx512_ifma{
            &vaddAvx512Ifma, &vsubAvx512Ifma, &vmulAvx512Ifma,
            &vdotAvx512Ifma, &axpyAvx512Ifma, &gemvAvx512Ifma};
        static const bool ifma = avx512Ifma();
        if (ifma)
            return avx512_ifma;
#endif
        return avx512;
      }
      case Backend::MqxEmulate: {
        static const TierKernels mqx_emulate{
            &vaddMqxEmulate, &vsubMqxEmulate, &vmulMqxEmulate,
            &vdotMqxEmulate, &axpyMqxEmulate, &gemvMqxEmulate};
        return mqx_emulate;
      }
      case Backend::MqxPisa: {
        static const TierKernels mqx_pisa{&vaddMqxPisa, &vsubMqxPisa,
                                          &vmulMqxPisa, &vdotMqxPisa,
                                          &axpyMqxPisa, &gemvMqxPisa};
        return mqx_pisa;
      }
#endif
      default:
        break;
    }
    throw BackendUnavailable("BLAS backend not compiled in: " +
                             backendName(backend));
}

} // namespace backends

std::string
opName(Op op)
{
    switch (op) {
      case Op::VectorAdd:
        return "vector add";
      case Op::VectorSub:
        return "vector sub";
      case Op::VectorMul:
        return "vector mul";
      case Op::Axpy:
        return "axpy";
    }
    return "unknown";
}

void
vadd(Backend backend, const Modulus& m, DConstSpan a, DConstSpan b, DSpan c)
{
    backends::tierKernels(backend).vadd(m, a, b, c);
}

void
vsub(Backend backend, const Modulus& m, DConstSpan a, DConstSpan b, DSpan c)
{
    backends::tierKernels(backend).vsub(m, a, b, c);
}

void
vmul(Backend backend, const Modulus& m, DConstSpan a, DConstSpan b, DSpan c)
{
    backends::tierKernels(backend).vmul(m, a, b, c);
}

void
vdot(Backend backend, const Modulus& m, const DConstSpan* a,
     const DConstSpan* b, size_t k, DSpan acc)
{
    backends::tierKernels(backend).vdot(m, a, b, k, acc);
}

void
axpy(Backend backend, const Modulus& m, const U128& alpha, DConstSpan x,
     DSpan y)
{
    backends::tierKernels(backend).axpy(m, alpha, x, y);
}

void
gemv(Backend backend, const Modulus& m, DConstSpan matrix, DConstSpan x,
     DSpan y, size_t rows, size_t cols)
{
    backends::tierKernels(backend).gemv(m, matrix, x, y, rows, cols);
}

void
runOp(Op op, Backend backend, const Modulus& m, DConstSpan a, DConstSpan b,
      DSpan c)
{
    switch (op) {
      case Op::VectorAdd:
        return vadd(backend, m, a, b, c);
      case Op::VectorSub:
        return vsub(backend, m, a, b, c);
      case Op::VectorMul:
        return vmul(backend, m, a, b, c);
      case Op::Axpy: {
        // axpy updates in place: c must already contain y (= b's values);
        // alpha is the first element of a.
        checkArg(a.n >= 1, "runOp(axpy): empty alpha source");
        U128 alpha = U128::fromParts(a.hi[0], a.lo[0]);
        return axpy(backend, m, alpha, b, c);
      }
    }
    throw InvalidArgument("runOp: unknown op");
}

} // namespace blas
} // namespace mqx
