/**
 * @file
 * CPUID-based feature detection.
 */
#include "core/cpu_features.h"

#include <array>
#include <cstring>

#if defined(__x86_64__) || defined(_M_X64) || defined(__i386__)
#include <cpuid.h>
#define MQX_HOST_IS_X86 1
#else
#define MQX_HOST_IS_X86 0
#endif

namespace mqx {

CpuFeatures
decodeCpuFeatures(const CpuidWords& words, uint64_t xcr0)
{
    CpuFeatures f;
    const bool osxsave = (words.leaf1_ecx >> 27) & 1;
    if (!osxsave || words.max_leaf < 7)
        return f;
    constexpr uint64_t kYmmState = 0x6;  // XMM | YMM
    constexpr uint64_t kZmmState = 0xE6; // + opmask | ZMM_Hi256 | Hi16_ZMM
    const unsigned ebx = words.leaf7_ebx;
    if ((xcr0 & kYmmState) == kYmmState)
        f.avx2 = (ebx >> 5) & 1;
    if ((xcr0 & kZmmState) == kZmmState) {
        f.avx512f = (ebx >> 16) & 1;
        f.avx512dq = (ebx >> 17) & 1;
        f.avx512ifma = (ebx >> 21) & 1;
        f.avx512bw = (ebx >> 30) & 1;
        f.avx512vl = (ebx >> 31) & 1;
        f.avx512vbmi2 = (words.leaf7_ecx >> 6) & 1;
    }
    return f;
}

namespace {

CpuFeatures
detect()
{
    CpuFeatures f;
#if MQX_HOST_IS_X86
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    std::string vendor;
    CpuidWords words;
    if (__get_cpuid(0, &eax, &ebx, &ecx, &edx)) {
        words.max_leaf = eax;
        char text[13] = {};
        std::memcpy(text + 0, &ebx, 4);
        std::memcpy(text + 4, &edx, 4);
        std::memcpy(text + 8, &ecx, 4);
        vendor = text;
    }
    if (words.max_leaf >= 1 && __get_cpuid(1, &eax, &ebx, &ecx, &edx))
        words.leaf1_ecx = ecx;
    if (words.max_leaf >= 7 &&
        __get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) {
        words.leaf7_ebx = ebx;
        words.leaf7_ecx = ecx;
    }
    uint64_t xcr0 = 0;
    if ((words.leaf1_ecx >> 27) & 1) {
        // xgetbv faults unless the OS set CR4.OSXSAVE (CPUID.1:ECX[27]).
        unsigned lo = 0, hi = 0;
        __asm__ volatile("xgetbv" : "=a"(lo), "=d"(hi) : "c"(0));
        xcr0 = (uint64_t{hi} << 32) | lo;
    }
    f = decodeCpuFeatures(words, xcr0);
    f.vendor = vendor;
    // Brand string from extended leaves 0x80000002..4.
    std::array<unsigned, 12> brand{};
    bool have_brand = true;
    for (unsigned i = 0; i < 3; ++i) {
        if (!__get_cpuid(0x80000002u + i, &brand[4 * i + 0], &brand[4 * i + 1],
                         &brand[4 * i + 2], &brand[4 * i + 3])) {
            have_brand = false;
            break;
        }
    }
    if (have_brand) {
        char text[49] = {};
        std::memcpy(text, brand.data(), 48);
        f.brand = text;
        // Trim leading spaces Intel pads with.
        size_t start = f.brand.find_first_not_of(' ');
        if (start != std::string::npos)
            f.brand = f.brand.substr(start);
    }
#endif
    return f;
}

} // namespace

const CpuFeatures&
hostCpuFeatures()
{
    static const CpuFeatures features = detect();
    return features;
}

} // namespace mqx
