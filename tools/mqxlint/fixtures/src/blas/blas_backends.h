/**
 * Fixture BLAS backends header: an AVX-512 tier compiled twice through
 * a tier body (blas_tier.inc), like the real tree, and an MQX TU that
 * includes the body twice under two name macros.
 *  - vaddAvx512, vaddAvx512Ifma: defined by the tier body in each TU
 *    (clean: backend-coverage credits the expanded body to the TU).
 *  - vaddMqxEmulate, vaddMqxPisa: defined by the two instantiations in
 *    blas_mqx.cc (clean only if each define pairs with its own include).
 *  - vmulAvx512Ifma: the body never defines vmul, so the IFMA TU
 *    lacks it (fires backend-coverage once). It sits after a struct's
 *    `};`, which must not end the scanned `namespace backends` region.
 */
#pragma once

namespace mqx {
namespace blas {
namespace backends {

void vaddAvx512(const Modulus&, DConstSpan, DConstSpan, DSpan);
void vaddAvx512Ifma(const Modulus&, DConstSpan, DConstSpan, DSpan);
void vaddMqxEmulate(const Modulus&, DConstSpan, DConstSpan, DSpan);
void vaddMqxPisa(const Modulus&, DConstSpan, DConstSpan, DSpan);

struct TierKernels
{
    decltype(&vaddAvx512) vadd;
};

void vmulAvx512Ifma(const Modulus&, DConstSpan, DConstSpan, DSpan);

} // namespace backends
} // namespace blas
} // namespace mqx
