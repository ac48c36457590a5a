/**
 * @file
 * Internal per-backend entry points of the merged negacyclic transform
 * (ntt/negacyclic.h): psi and n^-1 folded into the Pease stages, per
 * channel and over il packed lanes. Each lives in its own
 * negacyclic_<tier>.cc, apart from the cyclic ntt_<tier>.cc: sharing a
 * TU with the cyclic kernels changed GCC's inlining there and slowed
 * the cyclic AVX2 and Portable radix-2 paths by 15-28% (measured). The
 * dispatcher in ntt.cc routes to them. Not part of the public API.
 */
#pragma once

#include "core/backend.h"
#include "ntt/plan.h"

namespace mqx {
namespace ntt {

class NegacyclicTables;

namespace backends {

void negacyclicForwardScalar(const NegacyclicTables&, DConstSpan, DSpan,
                             DSpan);
void negacyclicInverseScalar(const NegacyclicTables&, DConstSpan, DSpan,
                             DSpan);
void negacyclicForwardBatchScalar(const NegacyclicTables&, size_t il,
                                  DConstSpan, DSpan, DSpan);
void negacyclicInverseBatchScalar(const NegacyclicTables&, size_t il,
                                  DConstSpan, DSpan, DSpan);

void negacyclicForwardPortable(const NegacyclicTables&, DConstSpan, DSpan,
                               DSpan);
void negacyclicInversePortable(const NegacyclicTables&, DConstSpan, DSpan,
                               DSpan);
void negacyclicForwardBatchPortable(const NegacyclicTables&, size_t il,
                                    DConstSpan, DSpan, DSpan);
void negacyclicInverseBatchPortable(const NegacyclicTables&, size_t il,
                                    DConstSpan, DSpan, DSpan);

void negacyclicForwardAvx2(const NegacyclicTables&, DConstSpan, DSpan,
                           DSpan);
void negacyclicInverseAvx2(const NegacyclicTables&, DConstSpan, DSpan,
                           DSpan);
void negacyclicForwardBatchAvx2(const NegacyclicTables&, size_t il,
                                DConstSpan, DSpan, DSpan);
void negacyclicInverseBatchAvx2(const NegacyclicTables&, size_t il,
                                DConstSpan, DSpan, DSpan);

void negacyclicForwardAvx512(const NegacyclicTables&, DConstSpan, DSpan,
                             DSpan);
void negacyclicInverseAvx512(const NegacyclicTables&, DConstSpan, DSpan,
                             DSpan);
void negacyclicForwardBatchAvx512(const NegacyclicTables&, size_t il,
                                  DConstSpan, DSpan, DSpan);
void negacyclicInverseBatchAvx512(const NegacyclicTables&, size_t il,
                                  DConstSpan, DSpan, DSpan);

void negacyclicForwardAvx512Ifma(const NegacyclicTables&, DConstSpan, DSpan,
                                 DSpan);
void negacyclicInverseAvx512Ifma(const NegacyclicTables&, DConstSpan, DSpan,
                                 DSpan);
void negacyclicForwardBatchAvx512Ifma(const NegacyclicTables&, size_t il,
                                      DConstSpan, DSpan, DSpan);
void negacyclicInverseBatchAvx512Ifma(const NegacyclicTables&, size_t il,
                                      DConstSpan, DSpan, DSpan);

// MQX: the full feature set only (the Fig. 6 variants stay cyclic).
void negacyclicForwardMqx(bool pisa, const NegacyclicTables&, DConstSpan,
                          DSpan, DSpan);
void negacyclicInverseMqx(bool pisa, const NegacyclicTables&, DConstSpan,
                          DSpan, DSpan);
void negacyclicForwardBatchMqx(bool pisa, const NegacyclicTables&,
                               size_t il, DConstSpan, DSpan, DSpan);
void negacyclicInverseBatchMqx(bool pisa, const NegacyclicTables&,
                               size_t il, DConstSpan, DSpan, DSpan);

} // namespace backends
} // namespace ntt
} // namespace mqx
