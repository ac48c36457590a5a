/**
 * @file
 * CPUID/XCR0 feature decode on synthetic register values: a leaf-7 SIMD
 * bit only counts when the OS saves the vector state it needs.
 */
#include <gtest/gtest.h>

#include "core/backend.h"
#include "core/cpu_features.h"

namespace mqx {
namespace {

constexpr unsigned kOsxsave = 1u << 27;
constexpr unsigned kAvx2 = 1u << 5;
constexpr unsigned kAvx512Subset =
    (1u << 16) | (1u << 17) | (1u << 30) | (1u << 31); // F DQ BW VL
constexpr unsigned kIfma = 1u << 21;
constexpr unsigned kVbmi2 = 1u << 6; // leaf 7 ECX
constexpr uint64_t kXcr0Full = 0xE7; // x87 SSE AVX opmask ZMM_Hi256 Hi16_ZMM

CpuidWords
words(unsigned leaf7_ebx, bool osxsave = true, unsigned max_leaf = 0xD,
      unsigned leaf7_ecx = kVbmi2)
{
    return CpuidWords{max_leaf, osxsave ? kOsxsave : 0u, leaf7_ebx,
                      leaf7_ecx};
}

TEST(CpuFeatures, AllBitsWithFullOsSupport)
{
    CpuFeatures f =
        decodeCpuFeatures(words(kAvx2 | kAvx512Subset | kIfma), kXcr0Full);
    EXPECT_TRUE(f.avx2);
    EXPECT_TRUE(f.hasAvx512());
    EXPECT_TRUE(f.avx512vbmi2);
    EXPECT_TRUE(f.hasAvx512Ifma());
}

TEST(CpuFeatures, IfmaKernelsNeedVbmi2)
{
    // Cannon Lake: IFMA without VBMI2. The limb kernels' funnel shifts
    // would fault there, so the host runs the emulated AVX-512 tier.
    CpuFeatures f = decodeCpuFeatures(
        words(kAvx2 | kAvx512Subset | kIfma, true, 0xD, /*leaf7_ecx=*/0),
        kXcr0Full);
    EXPECT_TRUE(f.hasAvx512());
    EXPECT_TRUE(f.avx512ifma);
    EXPECT_FALSE(f.avx512vbmi2);
    EXPECT_FALSE(f.hasAvx512Ifma());
    // VBMI2 is a ZMM-state bit like the others.
    CpuFeatures ymm = decodeCpuFeatures(words(kAvx2 | kAvx512Subset | kIfma),
                                        0x7);
    EXPECT_FALSE(ymm.avx512vbmi2);
    // VBMI2 alone does not make an IFMA host.
    CpuFeatures no_ifma =
        decodeCpuFeatures(words(kAvx2 | kAvx512Subset), kXcr0Full);
    EXPECT_TRUE(no_ifma.avx512vbmi2);
    EXPECT_FALSE(no_ifma.hasAvx512Ifma());
}

TEST(CpuFeatures, NoOsxsaveDisablesEverything)
{
    CpuFeatures f = decodeCpuFeatures(
        words(kAvx2 | kAvx512Subset | kIfma, /*osxsave=*/false), kXcr0Full);
    EXPECT_FALSE(f.avx2);
    EXPECT_FALSE(f.avx512f);
    EXPECT_FALSE(f.hasAvx512Ifma());
}

TEST(CpuFeatures, Xcr0GatesYmmAndZmmSeparately)
{
    const unsigned all = kAvx2 | kAvx512Subset | kIfma;
    // YMM saved, no ZMM state (AVX-512 disabled by the OS or the VM).
    CpuFeatures ymm = decodeCpuFeatures(words(all), 0x7);
    EXPECT_TRUE(ymm.avx2);
    EXPECT_FALSE(ymm.hasAvx512());
    EXPECT_FALSE(ymm.avx512ifma);
    // Only XMM saved: no AVX2 either.
    CpuFeatures xmm = decodeCpuFeatures(words(all), 0x3);
    EXPECT_FALSE(xmm.avx2);
    EXPECT_FALSE(xmm.hasAvx512());
    // Each of the three AVX-512 state components is required.
    for (uint64_t missing : {uint64_t{0x20}, uint64_t{0x40}, uint64_t{0x80}}) {
        CpuFeatures f = decodeCpuFeatures(words(all), kXcr0Full & ~missing);
        EXPECT_TRUE(f.avx2) << std::hex << missing;
        EXPECT_FALSE(f.hasAvx512()) << std::hex << missing;
        EXPECT_FALSE(f.hasAvx512Ifma()) << std::hex << missing;
    }
}

TEST(CpuFeatures, IfmaIsItsOwnBitAndNeedsTheAvx512Subset)
{
    CpuFeatures no_ifma =
        decodeCpuFeatures(words(kAvx2 | kAvx512Subset), kXcr0Full);
    EXPECT_TRUE(no_ifma.hasAvx512());
    EXPECT_FALSE(no_ifma.hasAvx512Ifma());
    // IFMA without VL (say) is not usable by the kernels.
    CpuFeatures partial = decodeCpuFeatures(
        words(kAvx2 | (kAvx512Subset & ~(1u << 31)) | kIfma), kXcr0Full);
    EXPECT_TRUE(partial.avx512ifma);
    EXPECT_FALSE(partial.hasAvx512Ifma());
}

TEST(CpuFeatures, MaxLeafBelowSevenHasNoLeaf7Bits)
{
    CpuFeatures f = decodeCpuFeatures(
        words(kAvx2 | kAvx512Subset | kIfma, true, /*max_leaf=*/6),
        kXcr0Full);
    EXPECT_FALSE(f.avx2);
    EXPECT_FALSE(f.hasAvx512());
}

TEST(CpuFeatures, HostDetectionIsConsistent)
{
    const CpuFeatures& f = hostCpuFeatures();
    EXPECT_TRUE(!f.hasAvx512Ifma() || f.hasAvx512());
    EXPECT_EQ(avx512Ifma(), MQX_BUILD_AVX512_IFMA &&
                                backendAvailable(Backend::Avx512) &&
                                f.avx512ifma && f.avx512vbmi2);
    EXPECT_EQ(backendAvailable(Backend::Avx512),
              MQX_BUILD_AVX512 && f.hasAvx512());
}

} // namespace
} // namespace mqx
