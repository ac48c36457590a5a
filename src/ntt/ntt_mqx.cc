/**
 * @file
 * The MQX tiers of the Pease kernel body, full feature set:
 * pease_tier.inc compiled in Table-2 emulation (forwardMqxEmulate &
 * co., correct words) and in PISA proxy mode (forwardMqxPisa & co.,
 * timing-faithful, wrong words by design). The Fig. 6 ablation's other
 * feature variants are ntt_mqx_ablation.cc.
 */
#include "mqxisa/isa_mqx.h"

#define MQX_PEASE_TIER_ISA mqxisa::MqxIsa<mqxisa::MqxMode::Emulate>
#define MQX_PEASE_TIER(name) name##MqxEmulate
#include "ntt/pease_tier.inc"
#undef MQX_PEASE_TIER_ISA
#undef MQX_PEASE_TIER

#define MQX_PEASE_TIER_ISA mqxisa::MqxIsa<mqxisa::MqxMode::Pisa>
#define MQX_PEASE_TIER(name) name##MqxPisa
#include "ntt/pease_tier.inc"
