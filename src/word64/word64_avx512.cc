/**
 * @file
 * AVX-512 instantiation of the single-word kernels (fused radix-4; see
 * the dispatch in word64.cc).
 */
#include "simd/isa_avx512.h"
#include "word64/ntt64_impl.h"

namespace mqx {
namespace w64 {
namespace detail {

void
forward64Avx512(const Ntt64Plan& plan, const uint64_t* in, uint64_t* out,
                uint64_t* scratch)
{
    forward64Lazy4Impl<simd::Avx512Isa>(plan, in, out, scratch);
}

void
inverse64Avx512(const Ntt64Plan& plan, const uint64_t* in, uint64_t* out,
                uint64_t* scratch)
{
    inverse64Lazy4Impl<simd::Avx512Isa>(plan, in, out, scratch);
}

} // namespace detail
} // namespace w64
} // namespace mqx
