/**
 * Fixture BLAS backends header: an AVX-512 tier compiled twice through
 * a tier body (blas_avx512_tier.inc), like the real tree.
 *  - vaddAvx512, vaddAvx512Ifma: defined by the tier body in each TU
 *    (clean: backend-coverage credits the expanded body to the TU).
 *  - vmulAvx512Ifma: the body never defines vmul, so the IFMA TU
 *    lacks it (fires backend-coverage once).
 */
#pragma once

namespace mqx {
namespace blas {
namespace backends {

void vaddAvx512(const Modulus&, DConstSpan, DConstSpan, DSpan);
void vaddAvx512Ifma(const Modulus&, DConstSpan, DConstSpan, DSpan);
void vmulAvx512Ifma(const Modulus&, DConstSpan, DConstSpan, DSpan);

} // namespace backends
} // namespace blas
} // namespace mqx
