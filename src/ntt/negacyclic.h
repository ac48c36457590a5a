/**
 * @file
 * Negacyclic (twisted) NTT: polynomial products in Z_q[x]/(x^n + 1).
 *
 * The paper's kernels compute cyclic transforms; RLWE-based FHE schemes
 * (the workload motivating Section 1) actually multiply in the
 * negacyclic ring. With psi a primitive 2n-th root of unity
 * (psi^2 = omega_n), the negacyclic product is
 *
 *     negacyclic_conv(f, g)[k]
 *         = psi^-k * INTT( NTT(psi^i f_i) .* NTT(psi^j g_j) )[k],
 *
 * but no twist pass runs: psi is merged into the Pease stage twiddles
 * (Longa-Naehrig 2016; Seiler 2018). The transform is the cyclic one's
 * kernel body (ntt/pease_impl.h) on other tables: the same Harvey
 * Cooley-Tukey forward (read j and j + n/2, write 2j and 2j + 1) splits
 * x^n + 1 instead of x^n - 1 level by level — stage s, butterfly j
 * reduces modulo x^(n/2^(s+1)) -+ zeta with zeta = psi^brev(2^s + (j
 * mod 2^s)) — and the same Gentleman-Sande inverse runs on the same
 * table read mirrored (detail::PeaseTwiddles) with n^-1 folded into its
 * last stage. So a product costs two
 * forwards, one point-wise multiply and one inverse — no separate
 * twist, untwist or n^-1 pass — and its outputs are word-identical to
 * the twisted cyclic pipeline (same bit-reversed evaluation order,
 * canonical words). Per-channel transforms take the cyclic transforms'
 * stage fusion (ntt::resolveStageFusion); the batch kernels are
 * radix-2. Requires 2n | q - 1 (one extra factor of two of 2-adicity).
 *
 * Data layout: the staged primitives are span-based and SoA-native —
 * they consume and produce split hi/lo views (core/residue_span.h)
 * with NO layout conversion and NO allocation per call; all scratch
 * lives in the engine and is reused across calls. The std::vector<U128>
 * overloads are thin adapters retained for the public boundary and the
 * reference comparators (each conversion is counted in
 * layout::metrics()).
 *
 * Aliasing rules (every NegacyclicEngine span primitive): an input may
 * be the EXACT same span as the output (in == out, in-place operation:
 * the point-wise ops load each block before storing it, and forward()/
 * inverse() copy an aliased input into a work buffer first, since the
 * Pease ping-pong is out of place), but a partial overlap is rejected
 * with InvalidArgument. The free negacyclicForward/Inverse functions
 * follow ntt::forward's contract instead: distinct buffers only.
 */
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/backend.h"
#include "ntt/ntt.h"

namespace mqx {
namespace robust {
class CancelToken;
} // namespace robust

namespace ntt {

/**
 * The immutable, shareable part of a negacyclic transform over one
 * (q, n): the cyclic plan (built and owned here; its own twiddle tables
 * are built only if a cyclic transform reads them), psi, and the merged
 * transform's per-level twiddle table. A pure function of (q, n), so
 * engine::PlanCache memoizes whole instances and threads share them
 * freely; per-call scratch lives in NegacyclicEngine.
 *
 * Table layout (ONE table of n entries for both directions, plus Shoup
 * companions): forward stage s, butterfly j reads entry 2^s + (j mod
 * 2^s). The entries walk the factor tree of x^n + 1 = x^n - psi^n:
 * entry 2^s + b holds the zeta that splits factor b of level s,
 * x^(2m) - zeta^2, into x^m - zeta and x^m + zeta (children 2b and
 * 2b + 1 of level s + 1). The root's zeta is psi^(n/2), and a factor
 * x^(2m) - psi^g has children with g/2 and g/2 + n, which works out to
 * entry k = psi^brev(k) (brev: log2(n)-bit reversal). The inverse
 * stage s >= 1 reads entry 2^s + 2^s - 1 - (j mod 2^s), since
 * psi^-brev(2^s + b) = q - psi^brev(2^(s+1) - 1 - b), and multiplies
 * v - u; its last stage multiplies by n^-1 (the plan's) and lastDiff().
 * So the tables hold 2n residues (32n bytes) and set-up computes n
 * Shoup companions.
 *
 * @throws InvalidArgument unless n is a power of two and 2n divides
 * q - 1 (i.e. the prime's 2-adicity is at least log2(n) + 1).
 */
class NegacyclicTables
{
  public:
    /** Derive the cyclic plan for (q, n) and the merged table on it. */
    NegacyclicTables(const Modulus& modulus, size_t n);
    NegacyclicTables(const NttPrime& prime, size_t n)
        : NegacyclicTables(Modulus(prime.q), n)
    {
    }

    const NttPlan& plan() const { return *plan_; }
    U128 psi() const { return psi_; }

    /** The twiddles: entry k = psi^brev(k) (entry 0 = 1, unread). */
    const ResidueVector& twiddles() const { return w_; }
    /** Their Shoup companions floor(w * 2^128 / q). */
    const ResidueVector& twiddlesShoup() const { return w_shoup_; }

    /**
     * psi^-(n/2) * n^-1, the factor of the inverse's last-stage
     * difference branch (its sum branch takes plan().nInv()), and its
     * Shoup companion.
     */
    U128 lastDiff() const { return last_diff_; }
    U128 lastDiffShoup() const { return last_diff_shoup_; }

    /**
     * Bytes of merged-twiddle storage including the Shoup companions
     * (2 split-layout vectors of n elements, 32n bytes) — the
     * negacyclic side of the plan-cache footprint accounting.
     */
    size_t
    tableBytes() const
    {
        return 2 * 2 * plan_->n() * sizeof(uint64_t);
    }

  private:
    /**
     * A heap object of its own, not an inline member: with the plan
     * inline, a stand-alone replica of perfbench's polymul_32k set-up
     * (five engine pairs built and torn down) took 14% more page faults
     * under glibc's dynamic mmap threshold.
     */
    std::unique_ptr<const NttPlan> plan_;
    U128 psi_;
    ResidueVector w_;       ///< psi^brev(k)
    ResidueVector w_shoup_; ///< floor(w_[k] * 2^128 / q)
    U128 last_diff_, last_diff_shoup_;
};

/**
 * Merged negacyclic forward transform of one channel: natural-order
 * canonical input, bit-reversed canonical output, word-identical to
 * ntt::forward of the input twisted by psi^i. Same buffer contract as
 * ntt::forward (in, out and scratch pairwise distinct).
 *
 * @throws BackendUnavailable if @p backend cannot run on this host.
 */
void negacyclicForward(const NegacyclicTables& tables, Backend backend,
                       DConstSpan in, DSpan out, DSpan scratch);

/** Merged negacyclic inverse (n^-1 and the psi^-i untwist included). */
void negacyclicInverse(const NegacyclicTables& tables, Backend backend,
                       DConstSpan in, DSpan out, DSpan scratch);

/**
 * negacyclicForward over @p il channels packed in the interleaved batch
 * layout (batch::packLanes; il * n words per half): each twiddle vector
 * is loaded once and reused across the lanes. Per lane word-identical
 * to negacyclicForward. @throws InvalidArgument unless
 * batchSupported(tables.plan()).
 */
void negacyclicForwardBatch(const NegacyclicTables& tables, Backend backend,
                            size_t il, DConstSpan in, DSpan out,
                            DSpan scratch);

/** Batch counterpart of negacyclicInverse. */
void negacyclicInverseBatch(const NegacyclicTables& tables, Backend backend,
                            size_t il, DConstSpan in, DSpan out,
                            DSpan scratch);

/**
 * Negacyclic transform engine over one (q, n): shared tables plus the
 * per-instance work buffers (which make it single-threaded; give every
 * thread its own engine on top of shared tables — or lease one from a
 * NegacyclicWorkspacePool, which reuses the buffers across channels
 * and calls).
 */
class NegacyclicEngine
{
  public:
    /** Derive plan and merged twiddle tables from scratch. */
    NegacyclicEngine(const NttPrime& prime, size_t n, Backend backend);
    NegacyclicEngine(const NttPrime& prime, size_t n);

    /**
     * Build on fully precomputed tables (e.g. from engine::PlanCache):
     * no modular math at all, just buffer allocation.
     */
    NegacyclicEngine(std::shared_ptr<const NegacyclicTables> tables,
                     Backend backend);

    /**
     * Re-point this engine at different precomputed tables (another
     * residue channel, say) without constructing a new engine: the
     * work buffers are reused as-is when the transform length matches
     * and resized only when it changes — the workspace-recycling
     * primitive behind the allocation-free channel dispatch.
     */
    void rebind(std::shared_ptr<const NegacyclicTables> tables,
                Backend backend);

    const NttPlan& plan() const { return tables_->plan(); }
    Backend backend() const { return backend_; }
    U128 psi() const { return tables_->psi(); }

    // ------------------------------------------------------------------
    // Span-based staged primitives: SoA-native, in-place capable,
    // allocation-free. Sizes must equal plan().n(); in == out is legal,
    // partial overlaps throw InvalidArgument.
    // ------------------------------------------------------------------

    /**
     * Forward negacyclic transform (negacyclicForward): the values of
     * the cyclic forward of psi^i * in[i], in bit-reversed order (same
     * convention as ntt::forward).
     */
    void forward(DConstSpan in, DSpan out);

    /** Inverse (negacyclicInverse): forward()'s exact inverse. */
    void inverse(DConstSpan in, DSpan out);

    /**
     * Point-wise product of two forward() outputs — the multiplication
     * stage of the negacyclic pipeline, exposed so operands resident in
     * the transform domain can be multiplied without re-transforming.
     * Order-consistent with forward()/inverse() (both bit-reversed).
     */
    void pointwiseMul(DConstSpan f_eval, DConstSpan g_eval, DSpan out);

    /**
     * acc[i] += f_eval[i] * g_eval[i] mod q: blas::vdot over one pair.
     * The accumulation stage of a transform-domain dot product: k
     * products collapse into k calls of this (or one vdot over all k)
     * plus ONE inverse(), instead of k full inverse transforms.
     * Exact modular arithmetic makes the result independent of
     * accumulation order, so fused sums are bit-identical to naive ones.
     */
    void pointwiseAccumulate(DSpan acc, DConstSpan f_eval, DConstSpan g_eval);

    /**
     * f * g mod (x^n + 1, q) — composed from the staged primitives:
     * inverse(pointwiseMul(forward(f), forward(g))). A non-null
     * @p cancel is checked before the forwards, the point-wise multiply
     * and the inverse, so a tripped deadline aborts within one
     * transform; the checks change no output word.
     */
    void polymul(DConstSpan f, DConstSpan g, DSpan out,
                 const robust::CancelToken* cancel = nullptr);

    /**
     * Auxiliary buffers per engine: an fma accumulator plus four staged
     * pairs of forward outputs for one rns::detail::fmaChannel dot
     * product, a bound independent of the product count. (Staging 2, 4
     * or 8 pairs timed alike at n = 1024..32768 on AVX-512; 1 was
     * 5-7% slower.)
     */
    static constexpr size_t kAuxBuffers = 9;

    /**
     * Auxiliary per-engine buffer (fma accumulators, eval staging),
     * lazily sized to plan().n() on first use and retained across
     * rebinds — so a warmed-up workspace hands the fused dot product
     * its scratch with no allocation. @p slot < kAuxBuffers.
     */
    ResidueVector& auxBuffer(size_t slot);

    // ------------------------------------------------------------------
    // U128-vector adapters (public boundary / reference comparators).
    // Each one pays counted layout conversions; kernel code uses the
    // span primitives above instead.
    // ------------------------------------------------------------------

    std::vector<U128> forward(const std::vector<U128>& input);
    std::vector<U128> inverse(const std::vector<U128>& input);
    std::vector<U128> pointwiseMul(const std::vector<U128>& f_eval,
                                   const std::vector<U128>& g_eval);
    void pointwiseAccumulate(ResidueVector& acc,
                             const std::vector<U128>& f_eval,
                             const std::vector<U128>& g_eval);
    std::vector<U128> polymulNegacyclic(const std::vector<U128>& f,
                                        const std::vector<U128>& g);

  private:
    std::shared_ptr<const NegacyclicTables> tables_;
    Backend backend_;
    ResidueVector buf_a_, buf_b_, buf_c_, scratch_;
    std::array<ResidueVector, kAuxBuffers> aux_; ///< see auxBuffer()
};

/**
 * A mutex-guarded free-list of NegacyclicEngine workspaces shared by
 * the channel tasks of engine::Engine's pool (and, apart from it, by
 * the engine's repairs). acquire() leases an engine rebound to the
 * requested tables — popping a recycled instance when one is free, so
 * in steady state a channel op costs a mutex lock and a pointer pop
 * instead of four length-n buffer allocations. The lease returns the
 * engine on destruction.
 *
 * An optional capacity bound (max_workspaces > 0) caps total live
 * engines; at the cap, acquire() WAITS for a lease to return instead
 * of allocating — the service layer's memory ceiling under overload.
 * A waiting acquire consults its CancelToken before and while blocked
 * (1 ms poll), so a cancelled or deadline-blown request unblocks with
 * Cancelled/DeadlineExceeded instead of sitting on a contended pool.
 */
class NegacyclicWorkspacePool
{
  public:
    /** RAII lease; move-only. The engine is valid for the lease's life. */
    class Lease
    {
      public:
        Lease(Lease&& other) noexcept
            : pool_(other.pool_), engine_(std::move(other.engine_))
        {
            other.pool_ = nullptr;
        }
        Lease(const Lease&) = delete;
        Lease& operator=(const Lease&) = delete;
        Lease& operator=(Lease&&) = delete;
        ~Lease();

        NegacyclicEngine& engine() { return *engine_; }

      private:
        friend class NegacyclicWorkspacePool;
        Lease(NegacyclicWorkspacePool* pool,
              std::unique_ptr<NegacyclicEngine> engine)
            : pool_(pool), engine_(std::move(engine))
        {
        }

        NegacyclicWorkspacePool* pool_;
        std::unique_ptr<NegacyclicEngine> engine_;
    };

    /** @p max_workspaces caps live engines; 0 = unbounded (default). */
    explicit NegacyclicWorkspacePool(size_t max_workspaces = 0)
        : max_workspaces_(max_workspaces)
    {
    }
    NegacyclicWorkspacePool(const NegacyclicWorkspacePool&) = delete;
    NegacyclicWorkspacePool& operator=(const NegacyclicWorkspacePool&) =
        delete;

    /**
     * Lease a workspace engine rebound to @p tables / @p backend.
     * Thread-safe; the pool must outlive every lease. When the pool is
     * bounded and every workspace is leased, blocks until one returns;
     * a non-null @p cancel is checked before and during the wait and a
     * cancelled/expired token throws StatusError (no lease taken).
     */
    Lease acquire(std::shared_ptr<const NegacyclicTables> tables,
                  Backend backend,
                  const robust::CancelToken* cancel = nullptr);

    /** Idle workspaces currently available for reuse (tests). */
    size_t idleCount() const;

    /** Configured capacity; 0 = unbounded. */
    size_t capacity() const { return max_workspaces_; }

    /**
     * Leases currently outstanding (acquired, not yet returned). Zero
     * whenever no op is in flight — the balance the fault-injection
     * tests assert after randomized failure runs: leases are returned
     * by RAII unwind, so an exception anywhere mid-pipeline can
     * neither leak nor double-return one.
     */
    size_t leasedCount() const
    {
        return leased_.load(std::memory_order_acquire);
    }

    /** Total successful acquire() calls since construction. */
    uint64_t totalLeases() const
    {
        return total_leases_.load(std::memory_order_relaxed);
    }

  private:
    void release(std::unique_ptr<NegacyclicEngine> engine);

    mutable std::mutex mutex_;
    std::condition_variable available_cv_;
    std::vector<std::unique_ptr<NegacyclicEngine>> free_;
    size_t max_workspaces_ = 0; ///< 0 = unbounded
    size_t live_ = 0;           ///< engines in existence, guarded by mutex_
    std::atomic<size_t> leased_{0};
    std::atomic<uint64_t> total_leases_{0};
};

/**
 * Reference negacyclic convolution via schoolbook + x^n = -1 reduction
 * (for tests and verification).
 */
std::vector<U128> negacyclicConvolution(const Modulus& modulus,
                                        const std::vector<U128>& f,
                                        const std::vector<U128>& g);

/**
 * Reference negacyclic convolution into preallocated storage: @p out
 * receives the n-length result and @p full_scratch holds the 2n-1
 * schoolbook product. Both are sized with assign(), so a caller looping
 * over channels or trials reuses their capacity instead of growing a
 * fresh 2n-1 vector per iteration (the naive path used to reallocate
 * the full product inside such loops).
 */
void negacyclicConvolutionInto(const Modulus& modulus,
                               const std::vector<U128>& f,
                               const std::vector<U128>& g,
                               std::vector<U128>& out,
                               std::vector<U128>& full_scratch);

} // namespace ntt
} // namespace mqx
