/**
 * Fixture backends header: two declarations in the scanned
 * `namespace backends` region.
 *  - forwardScalar: defined in ntt_scalar.cc with validation (clean).
 *  - rawScalar: defined WITHOUT validation (fires dspan-validate once).
 * backend-coverage fires in the BLAS fixture (src/blas/).
 */
#pragma once

namespace mqx {
namespace ntt {
namespace backends {

void forwardScalar(const NttPlan&, DConstSpan, DSpan, DSpan);
void rawScalar(const NttPlan&, DConstSpan, DSpan);

} // namespace backends
} // namespace ntt
} // namespace mqx
