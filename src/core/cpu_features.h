/**
 * @file
 * Host CPU feature detection (CPUID + XGETBV). Runtime dispatch uses
 * this so that binaries containing AVX-512 code paths stay safe on
 * older CPUs and on OSes/VMs that do not save the vector state.
 */
#pragma once

#include <cstdint>
#include <string>

namespace mqx {

/** The SIMD features and identity of the host CPU. */
struct CpuFeatures
{
    bool avx2 = false;
    bool avx512f = false;
    bool avx512dq = false;
    bool avx512bw = false;
    bool avx512vl = false;
    bool avx512ifma = false;
    bool avx512vbmi2 = false;
    std::string vendor;
    std::string brand;

    /** True when the full AVX-512 subset the kernels use is present. */
    bool
    hasAvx512() const
    {
        return avx512f && avx512dq && avx512bw && avx512vl;
    }

    /**
     * hasAvx512() plus the 52-bit multiply-add (vpmadd52lo/hi) and the
     * VBMI2 funnel shifts of the limb splits (vpshrdq): every IFMA host
     * but Cannon Lake has both.
     */
    bool
    hasAvx512Ifma() const
    {
        return hasAvx512() && avx512ifma && avx512vbmi2;
    }
};

/** The CPUID words the SIMD feature decode reads. */
struct CpuidWords
{
    unsigned max_leaf = 0;  ///< leaf 0 EAX
    unsigned leaf1_ecx = 0; ///< leaf 1 ECX (bit 27: OSXSAVE)
    unsigned leaf7_ebx = 0; ///< leaf 7 subleaf 0 EBX
    unsigned leaf7_ecx = 0; ///< leaf 7 subleaf 0 ECX (bit 6: AVX512_VBMI2)
};

/**
 * Decode the SIMD bits of CpuFeatures from raw CPUID words and XCR0
 * (xgetbv(0), read only when OSXSAVE is set). A leaf-7 bit counts only
 * when the OS saves the state it needs: AVX2 requires OSXSAVE and
 * XCR0 & 0x6 (XMM, YMM); the AVX-512 bits require XCR0 & 0xE6 (plus
 * opmask, ZMM_Hi256, Hi16_ZMM). Pure, so it is testable on any host.
 */
CpuFeatures decodeCpuFeatures(const CpuidWords& words, uint64_t xcr0);

/** Detected once per process. */
const CpuFeatures& hostCpuFeatures();

} // namespace mqx
