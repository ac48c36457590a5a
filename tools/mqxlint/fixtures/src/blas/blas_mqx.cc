/** Fixture MQX BLAS TU: the tier body twice, MqxEmulate then MqxPisa
 *  names (each define names the includes up to the next one). */
#define MQX_BLAS_TIER_ISA mqxisa::MqxIsa<mqxisa::MqxMode::Emulate>
#define MQX_BLAS_TIER(name) name##MqxEmulate
#include "blas/blas_tier.inc"
#undef MQX_BLAS_TIER_ISA
#undef MQX_BLAS_TIER

#define MQX_BLAS_TIER_ISA mqxisa::MqxIsa<mqxisa::MqxMode::Pisa>
#define MQX_BLAS_TIER(name) name##MqxPisa
#include "blas/blas_tier.inc"
