/**
 * @file
 * Public BLAS dispatch over the backend tiers.
 */
#include "blas/blas.h"

#include "blas/blas_backends.h"
#include "core/config.h"

namespace mqx {
namespace blas {

namespace {

void
requireAvailable(Backend backend)
{
    if (!backendAvailable(backend)) {
        throw BackendUnavailable("BLAS backend not available on this host: " +
                                 backendName(backend));
    }
}

[[noreturn]] void
notCompiled(Backend backend)
{
    throw BackendUnavailable("BLAS backend not compiled in: " +
                             backendName(backend));
}

#if MQX_BUILD_AVX512
/** The Backend::Avx512 entry points: one tier body, two multiplies. */
struct Avx512Tier
{
    const char* kernel;
    decltype(&backends::vaddAvx512) vadd;
    decltype(&backends::vsubAvx512) vsub;
    decltype(&backends::vmulAvx512) vmul;
    decltype(&backends::vdotAvx512) vdot;
    decltype(&backends::axpyAvx512) axpy;
    decltype(&backends::gemvAvx512) gemv;
};

const Avx512Tier&
avx512Tier()
{
    static const Avx512Tier tier = [] {
#if MQX_BUILD_AVX512_IFMA
        if (avx512Ifma())
            return Avx512Tier{"ifma",
                              &backends::vaddAvx512Ifma,
                              &backends::vsubAvx512Ifma,
                              &backends::vmulAvx512Ifma,
                              &backends::vdotAvx512Ifma,
                              &backends::axpyAvx512Ifma,
                              &backends::gemvAvx512Ifma};
#endif
        return Avx512Tier{"emulated",
                          &backends::vaddAvx512,
                          &backends::vsubAvx512,
                          &backends::vmulAvx512,
                          &backends::vdotAvx512,
                          &backends::axpyAvx512,
                          &backends::gemvAvx512};
    }();
    return tier;
}
#endif

} // namespace

const char*
avx512MulKernel()
{
#if MQX_BUILD_AVX512
    if (backendAvailable(Backend::Avx512))
        return avx512Tier().kernel;
#endif
    return "unavailable";
}

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
    requireAvailable(backend);
    switch (backend) {
      case Backend::Scalar:
        return backends::vaddScalar(m, a, b, c);
      case Backend::Portable:
        return backends::vaddPortable(m, a, b, c);
      case Backend::Avx2:
#if MQX_BUILD_AVX2
        return backends::vaddAvx2(m, a, b, c);
#else
        notCompiled(backend);
#endif
      case Backend::Avx512:
#if MQX_BUILD_AVX512
        return avx512Tier().vadd(m, a, b, c);
#else
        notCompiled(backend);
#endif
      case Backend::MqxEmulate:
#if MQX_BUILD_AVX512
        return backends::vaddMqx(false, m, a, b, c);
#else
        notCompiled(backend);
#endif
      case Backend::MqxPisa:
#if MQX_BUILD_AVX512
        return backends::vaddMqx(true, m, a, b, c);
#else
        notCompiled(backend);
#endif
    }
    notCompiled(backend);
}

void
vsub(Backend backend, const Modulus& m, DConstSpan a, DConstSpan b, DSpan c)
{
    requireAvailable(backend);
    switch (backend) {
      case Backend::Scalar:
        return backends::vsubScalar(m, a, b, c);
      case Backend::Portable:
        return backends::vsubPortable(m, a, b, c);
      case Backend::Avx2:
#if MQX_BUILD_AVX2
        return backends::vsubAvx2(m, a, b, c);
#else
        notCompiled(backend);
#endif
      case Backend::Avx512:
#if MQX_BUILD_AVX512
        return avx512Tier().vsub(m, a, b, c);
#else
        notCompiled(backend);
#endif
      case Backend::MqxEmulate:
#if MQX_BUILD_AVX512
        return backends::vsubMqx(false, m, a, b, c);
#else
        notCompiled(backend);
#endif
      case Backend::MqxPisa:
#if MQX_BUILD_AVX512
        return backends::vsubMqx(true, m, a, b, c);
#else
        notCompiled(backend);
#endif
    }
    notCompiled(backend);
}

void
vmul(Backend backend, const Modulus& m, DConstSpan a, DConstSpan b, DSpan c)
{
    requireAvailable(backend);
    switch (backend) {
      case Backend::Scalar:
        return backends::vmulScalar(m, a, b, c);
      case Backend::Portable:
        return backends::vmulPortable(m, a, b, c);
      case Backend::Avx2:
#if MQX_BUILD_AVX2
        return backends::vmulAvx2(m, a, b, c);
#else
        notCompiled(backend);
#endif
      case Backend::Avx512:
#if MQX_BUILD_AVX512
        return avx512Tier().vmul(m, a, b, c);
#else
        notCompiled(backend);
#endif
      case Backend::MqxEmulate:
#if MQX_BUILD_AVX512
        return backends::vmulMqx(false, m, a, b, c);
#else
        notCompiled(backend);
#endif
      case Backend::MqxPisa:
#if MQX_BUILD_AVX512
        return backends::vmulMqx(true, m, a, b, c);
#else
        notCompiled(backend);
#endif
    }
    notCompiled(backend);
}

void
vdot(Backend backend, const Modulus& m, const DConstSpan* a,
     const DConstSpan* b, size_t k, DSpan acc)
{
    requireAvailable(backend);
    switch (backend) {
      case Backend::Scalar:
        return backends::vdotScalar(m, a, b, k, acc);
      case Backend::Portable:
        return backends::vdotPortable(m, a, b, k, acc);
      case Backend::Avx2:
#if MQX_BUILD_AVX2
        return backends::vdotAvx2(m, a, b, k, acc);
#else
        notCompiled(backend);
#endif
      case Backend::Avx512:
#if MQX_BUILD_AVX512
        return avx512Tier().vdot(m, a, b, k, acc);
#else
        notCompiled(backend);
#endif
      case Backend::MqxEmulate:
#if MQX_BUILD_AVX512
        return backends::vdotMqx(false, m, a, b, k, acc);
#else
        notCompiled(backend);
#endif
      case Backend::MqxPisa:
#if MQX_BUILD_AVX512
        return backends::vdotMqx(true, m, a, b, k, acc);
#else
        notCompiled(backend);
#endif
    }
    notCompiled(backend);
}

void
axpy(Backend backend, const Modulus& m, const U128& alpha, DConstSpan x,
     DSpan y)
{
    requireAvailable(backend);
    switch (backend) {
      case Backend::Scalar:
        return backends::axpyScalar(m, alpha, x, y);
      case Backend::Portable:
        return backends::axpyPortable(m, alpha, x, y);
      case Backend::Avx2:
#if MQX_BUILD_AVX2
        return backends::axpyAvx2(m, alpha, x, y);
#else
        notCompiled(backend);
#endif
      case Backend::Avx512:
#if MQX_BUILD_AVX512
        return avx512Tier().axpy(m, alpha, x, y);
#else
        notCompiled(backend);
#endif
      case Backend::MqxEmulate:
#if MQX_BUILD_AVX512
        return backends::axpyMqx(false, m, alpha, x, y);
#else
        notCompiled(backend);
#endif
      case Backend::MqxPisa:
#if MQX_BUILD_AVX512
        return backends::axpyMqx(true, m, alpha, x, y);
#else
        notCompiled(backend);
#endif
    }
    notCompiled(backend);
}


void
gemv(Backend backend, const Modulus& m, DConstSpan matrix, DConstSpan x,
     DSpan y, size_t rows, size_t cols)
{
    requireAvailable(backend);
    switch (backend) {
      case Backend::Scalar:
        return backends::gemvScalar(m, matrix, x, y, rows, cols);
      case Backend::Portable:
        return backends::gemvPortable(m, matrix, x, y, rows, cols);
      case Backend::Avx2:
#if MQX_BUILD_AVX2
        return backends::gemvAvx2(m, matrix, x, y, rows, cols);
#else
        notCompiled(backend);
#endif
      case Backend::Avx512:
#if MQX_BUILD_AVX512
        return avx512Tier().gemv(m, matrix, x, y, rows, cols);
#else
        notCompiled(backend);
#endif
      case Backend::MqxEmulate:
#if MQX_BUILD_AVX512
        return backends::gemvMqx(false, m, matrix, x, y, rows, cols);
#else
        notCompiled(backend);
#endif
      case Backend::MqxPisa:
#if MQX_BUILD_AVX512
        return backends::gemvMqx(true, m, matrix, x, y, rows, cols);
#else
        notCompiled(backend);
#endif
    }
    notCompiled(backend);
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
