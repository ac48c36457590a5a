/**
 * @file
 * Sanctioned software-prefetch helpers (ROADMAP item 2).
 *
 * The interleaved batch kernels stream working sets that exceed L2 and
 * hide the resulting L3/DRAM latency by prefetching the tile that will
 * be consumed a few group-rows ahead — the `packpf` pattern ParPar uses
 * in its packed GF(2^16) multi-region kernels. All raw
 * `_mm_prefetch` / `__builtin_prefetch` intrinsics in the tree live in
 * THIS header; mqx-lint's `prefetch-hygiene` rule rejects them anywhere
 * else so the prefetch policy (hint level, distance) stays in one
 * place.
 *
 * The lookahead distance is the constant kPrefetchRows (2 group-rows),
 * from a distance sweep of the batch NTT at n = 4096, k = 8: 2 rows
 * ahead beat 0/4/8/16 on both the AVX2 and AVX-512 tiers — anything
 * longer evicts lines the sweep is still using, anything shorter leaves
 * latency exposed at the stream head. A hint changes no output word.
 */
#pragma once

#include <cstddef>
#include <cstdint>

#if defined(__x86_64__) || defined(__i386__) || defined(_M_X64) ||            \
    defined(_M_IX86)
#define MQX_PREFETCH_X86 1
#include <immintrin.h>
#else
#define MQX_PREFETCH_X86 0
#endif

#include "core/config.h"

namespace mqx {
namespace core {

/**
 * Hint the cache hierarchy to pull the line holding @p p toward L1.
 * Purely advisory: prefetching an out-of-range address is harmless (the
 * hint never faults), so tail iterations may prefetch past the end of a
 * buffer without guarding.
 */
MQX_FORCE_INLINE void
prefetchRead(const void* p)
{
#if MQX_PREFETCH_X86
    _mm_prefetch(static_cast<const char*>(p), _MM_HINT_T0);
#elif defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(p, /*rw=*/0, /*locality=*/3);
#else
    (void)p;
#endif
}

/**
 * Lookahead distance in group-rows (one group-row = IL tiles = the
 * words one batch sweep consumes before advancing).
 */
constexpr size_t kPrefetchRows = 2;

/**
 * Prefetch the hi/lo words @p ahead_words past @p idx in a split
 * residue buffer — the batch kernels' "next region" hint, issued once
 * per cache-line-sized tile.
 */
MQX_FORCE_INLINE void
prefetchNext(const uint64_t* hi, const uint64_t* lo, size_t idx,
             size_t ahead_words)
{
    prefetchRead(hi + idx + ahead_words);
    prefetchRead(lo + idx + ahead_words);
}

} // namespace core
} // namespace mqx
