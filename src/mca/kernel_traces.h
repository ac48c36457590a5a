/**
 * @file
 * Instruction traces of the shipped kernels, obtained by running the
 * real kernel templates with the recording TraceIsa policy.
 */
#pragma once

#include <string>
#include <vector>

#include "core/backend.h"
#include "mca/trace_isa.h"
#include "mod/modulus.h"

namespace mqx {
namespace mca {

/** Which kernel to trace. */
enum class Kernel
{
    AddMod, ///< double-word modular addition (Listing 2 / Listing 3)
    SubMod,
    MulMod,    ///< schoolbook product + Barrett
    Butterfly, ///< one NTT butterfly: add + sub + mul
    ShoupMul,  ///< Shoup multiply by a fixed (w, wq): the lazy NTT twiddle
               ///< multiply, multiplicand split hoisted out (mulModShoupV)
    LazyButterfly,      ///< the shipped lazy forward butterfly: addModLazyV
                        ///< + subModLazyRawV + mulModShoupV, in the
                        ///< flavor's own form (headroom unless MQX)
    LazyButterflyCarry, ///< the same butterfly on the adc/sbb carry chain
                        ///< (the form MQX keeps), for comparison
    ForwardButterfly,   ///< the radix-2 forward butterfly of a stage whose
                        ///< twiddles are loaded per vector
                        ///< (ntt::detail::forwardButterflyV), with its
                        ///< (w, wq) split: the NTT's steady-state step
};

/** Which instruction-set flavor to trace. */
enum class TraceFlavor
{
    Avx512,        ///< Fig. 6 "Base"
    MqxMulOnly,    ///< +M
    MqxCarryOnly,  ///< +C
    MqxFull,       ///< +M,C
    MqxMulhiCarry, ///< +Mh,C
    MqxPredicated, ///< +M,C,P
    Avx512Ifma,    ///< AVX-512 with the IFMA limb Shoup multiply (shipping)
};

std::string kernelName(Kernel k);
std::string flavorName(TraceFlavor f);

/**
 * Trace @p kernel under @p flavor for the given modulus (the modulus
 * only affects Barrett shift constants, not the instruction sequence).
 * Register-register kernel body only: loads/stores and per-call
 * constant setup are excluded, matching Listing 4's scope.
 */
std::vector<TracedInstr> traceKernel(Kernel kernel, TraceFlavor flavor,
                                     const Modulus& m);

} // namespace mca
} // namespace mqx
