/**
 * @file
 * Internal per-backend BLAS entry points (one TU per ISA; every SIMD
 * tier is blas_tier.inc compiled once per ISA policy) and the table
 * blas_dispatch.cc resolves them into. Not public.
 */
#pragma once

#include "core/backend.h"
#include "core/residue_span.h"
#include "mod/modulus.h"

namespace mqx {
namespace blas {
namespace backends {

// Scalar (native 128-bit words).
void vaddScalar(const Modulus&, DConstSpan, DConstSpan, DSpan);
void vsubScalar(const Modulus&, DConstSpan, DConstSpan, DSpan);
void vmulScalar(const Modulus&, DConstSpan, DConstSpan, DSpan);
void vdotScalar(const Modulus&, const DConstSpan*, const DConstSpan*, size_t,
                DSpan);
void axpyScalar(const Modulus&, const U128&, DConstSpan, DSpan);
void gemvScalar(const Modulus&, DConstSpan, DConstSpan, DSpan, size_t,
                size_t);

// Portable 8-lane model.
void vaddPortable(const Modulus&, DConstSpan, DConstSpan, DSpan);
void vsubPortable(const Modulus&, DConstSpan, DConstSpan, DSpan);
void vmulPortable(const Modulus&, DConstSpan, DConstSpan, DSpan);
void vdotPortable(const Modulus&, const DConstSpan*, const DConstSpan*, size_t,
                  DSpan);
void axpyPortable(const Modulus&, const U128&, DConstSpan, DSpan);
void gemvPortable(const Modulus&, DConstSpan, DConstSpan, DSpan, size_t,
                  size_t);

// AVX2.
void vaddAvx2(const Modulus&, DConstSpan, DConstSpan, DSpan);
void vsubAvx2(const Modulus&, DConstSpan, DConstSpan, DSpan);
void vmulAvx2(const Modulus&, DConstSpan, DConstSpan, DSpan);
void vdotAvx2(const Modulus&, const DConstSpan*, const DConstSpan*, size_t,
              DSpan);
void axpyAvx2(const Modulus&, const U128&, DConstSpan, DSpan);
void gemvAvx2(const Modulus&, DConstSpan, DConstSpan, DSpan, size_t, size_t);

// AVX-512.
void vaddAvx512(const Modulus&, DConstSpan, DConstSpan, DSpan);
void vsubAvx512(const Modulus&, DConstSpan, DConstSpan, DSpan);
void vmulAvx512(const Modulus&, DConstSpan, DConstSpan, DSpan);
void vdotAvx512(const Modulus&, const DConstSpan*, const DConstSpan*, size_t,
                DSpan);
void axpyAvx512(const Modulus&, const U128&, DConstSpan, DSpan);
void gemvAvx512(const Modulus&, DConstSpan, DConstSpan, DSpan, size_t,
                size_t);

// The same AVX-512 tier body with every Barrett multiply on IFMA 52-bit
// limbs (blas_avx512_ifma.cc, MQX_BUILD_AVX512_IFMA): word-identical to
// the Avx512 entry points; tierKernels(Backend::Avx512) picks it when
// mqx::avx512Ifma().
void vaddAvx512Ifma(const Modulus&, DConstSpan, DConstSpan, DSpan);
void vsubAvx512Ifma(const Modulus&, DConstSpan, DConstSpan, DSpan);
void vmulAvx512Ifma(const Modulus&, DConstSpan, DConstSpan, DSpan);
void vdotAvx512Ifma(const Modulus&, const DConstSpan*, const DConstSpan*,
                    size_t, DSpan);
void axpyAvx512Ifma(const Modulus&, const U128&, DConstSpan, DSpan);
void gemvAvx512Ifma(const Modulus&, DConstSpan, DConstSpan, DSpan, size_t,
                    size_t);

// MQX, full feature set: the tier body in Table-2 emulation (correct
// words) and in PISA proxy mode (timing-faithful, wrong words by design).
void vaddMqxEmulate(const Modulus&, DConstSpan, DConstSpan, DSpan);
void vsubMqxEmulate(const Modulus&, DConstSpan, DConstSpan, DSpan);
void vmulMqxEmulate(const Modulus&, DConstSpan, DConstSpan, DSpan);
void vdotMqxEmulate(const Modulus&, const DConstSpan*, const DConstSpan*,
                    size_t, DSpan);
void axpyMqxEmulate(const Modulus&, const U128&, DConstSpan, DSpan);
void gemvMqxEmulate(const Modulus&, DConstSpan, DConstSpan, DSpan, size_t,
                    size_t);

void vaddMqxPisa(const Modulus&, DConstSpan, DConstSpan, DSpan);
void vsubMqxPisa(const Modulus&, DConstSpan, DConstSpan, DSpan);
void vmulMqxPisa(const Modulus&, DConstSpan, DConstSpan, DSpan);
void vdotMqxPisa(const Modulus&, const DConstSpan*, const DConstSpan*, size_t,
                 DSpan);
void axpyMqxPisa(const Modulus&, const U128&, DConstSpan, DSpan);
void gemvMqxPisa(const Modulus&, DConstSpan, DConstSpan, DSpan, size_t,
                 size_t);

/** One backend's six entry points: every public blas:: op goes through
 *  them. */
struct TierKernels
{
    decltype(&vaddScalar) vadd;
    decltype(&vsubScalar) vsub;
    decltype(&vmulScalar) vmul;
    decltype(&vdotScalar) vdot;
    decltype(&axpyScalar) axpy;
    decltype(&gemvScalar) gemv;
};

/**
 * The kernels @p backend runs (Backend::Avx512: the IFMA build where
 * mqx::avx512Ifma(), else the emulated one), resolved once per backend.
 * @throws BackendUnavailable if the host or the build lacks it.
 */
const TierKernels& tierKernels(Backend backend);

} // namespace backends
} // namespace blas
} // namespace mqx
