/**
 * @file
 * wordhash: pin every output word of the NTT stack and the BLAS ops to a
 * committed file.
 *
 *     wordhash                     print one hash line per configuration
 *     wordhash --check FILE        recompute and diff against FILE
 *
 * Each configuration (kernel or BLAS op, direction, prime, n, reduction,
 * fusion, thread count, ...) runs on a fixed pseudo-random canonical input,
 * and its output words are folded into one FNV-1a hash. The hash is
 * backend-independent: every available correct
 * backend (Scalar, Portable, AVX2, AVX-512 on its dispatched multiply,
 * AVX-512 on the emulated multiply, MQX in Table-2 emulation) must
 * reproduce it, or the run fails. A backend the host lacks is reported
 * as skipped. The PISA proxy mode computes wrong words by design, but
 * fixed ones: its own "pisa ..." rows run on the MQX-PISA slot only, so
 * a dispatch that swapped the two MQX modes changes a hash.
 *
 * The check mode is a tier-1 ctest against WORDHASH.txt at the repo
 * root, so a kernel refactor that changes any word fails the suite.
 */
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "blas/blas.h"
#include "blas/blas_backends.h"
#include "core/backend.h"
#include "engine/engine.h"
#include "ntt/negacyclic.h"
#include "ntt/ntt.h"
#include "ntt/ntt_backends.h"
#include "rns/rns.h"

using namespace mqx;

namespace {

// ---------------------------------------------------------------------------
// Inputs and hashing.
// ---------------------------------------------------------------------------

uint64_t
splitmix(uint64_t& s)
{
    uint64_t z = (s += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** Canonical residues below q, by rejection from a fixed stream. */
void
fillRandom(DSpan x, const U128& q, uint64_t seed)
{
    int bits = 0;
    for (U128 t = q; t != U128{0}; t = t >> 1)
        ++bits;
    const uint64_t hi_mask = bits > 64 ? ~0ull >> (128 - bits) : 0;
    const uint64_t lo_mask = bits >= 64 ? ~0ull : (1ull << bits) - 1;
    uint64_t s = seed;
    for (size_t i = 0; i < x.n; ++i) {
        U128 v;
        do {
            v = U128::fromParts(splitmix(s) & hi_mask, splitmix(s) & lo_mask);
        } while (!(v < q));
        x.hi[i] = v.hi;
        x.lo[i] = v.lo;
    }
}

struct Fnv
{
    uint64_t h = 0xcbf29ce484222325ull;
    void
    word(uint64_t w)
    {
        for (int b = 0; b < 8; ++b) {
            h ^= (w >> (8 * b)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }
    void
    span(DConstSpan x)
    {
        for (size_t i = 0; i < x.n; ++i) {
            word(x.hi[i]);
            word(x.lo[i]);
        }
    }
};

std::string
hex(uint64_t h)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

// ---------------------------------------------------------------------------
// Backends ("slots"). The emulated AVX-512 slot runs the AVX-512 tier on
// its 64x64 multiply even on IFMA hosts, so both kernels are covered.
// ---------------------------------------------------------------------------

struct Slot
{
    const char* name;
    Backend backend;
    bool emulated_avx512;
};

const std::vector<Slot>&
slots()
{
    static const std::vector<Slot> s = {
        {"Scalar", Backend::Scalar, false},
        {"Portable", Backend::Portable, false},
        {"AVX2", Backend::Avx2, false},
        {"AVX-512", Backend::Avx512, false},
        {"AVX-512-emulated", Backend::Avx512, true},
        {"MQX-emulate", Backend::MqxEmulate, false},
        {"MQX-PISA", Backend::MqxPisa, false},
    };
    return s;
}

bool
slotAvailable(const Slot& s)
{
    if (!backendAvailable(s.backend))
        return false;
#if !MQX_BUILD_AVX512
    if (s.emulated_avx512)
        return false;
#endif
    return true;
}

/** One configuration: a name and a body that hashes its output on a slot
 *  (or returns false when the slot does not apply). A PISA row runs on
 *  the MQX-PISA slot only, and every other row everywhere else. */
struct Config
{
    std::string name;
    std::function<bool(const Slot&, uint64_t&)> run;
    bool pisa = false;
};

// ---------------------------------------------------------------------------
// Kernel entry points per slot.
// ---------------------------------------------------------------------------

void
cyclic(const Slot& s, bool fwd, const ntt::NttPlan& plan, DConstSpan in,
       DSpan out, DSpan scr, Reduction red, StageFusion fusion)
{
    if (s.emulated_avx512) {
#if MQX_BUILD_AVX512
        const ntt::detail::PeaseShape shape{red, fusion};
        if (fwd)
            ntt::backends::forwardAvx512(
                plan, ntt::detail::forwardTwiddles(plan), in, out, scr, shape);
        else
            ntt::backends::inverseAvx512(
                plan, ntt::detail::inverseTwiddles(plan), in, out, scr, shape);
#endif
        return;
    }
    if (fwd)
        ntt::forward(plan, s.backend, in, out, scr, red, fusion);
    else
        ntt::inverse(plan, s.backend, in, out, scr, red, fusion);
}

void
negacyclic(const Slot& s, bool fwd, const ntt::NegacyclicTables& t,
           size_t il, DConstSpan in, DSpan out, DSpan scr)
{
    if (s.emulated_avx512) {
#if MQX_BUILD_AVX512
        const ntt::NttPlan& plan = t.plan();
        const auto tw = fwd ? ntt::detail::forwardTwiddles(t)
                            : ntt::detail::inverseTwiddles(t);
        if (il == 0 && fwd)
            ntt::backends::forwardAvx512(plan, tw, in, out, scr, {});
        else if (il == 0)
            ntt::backends::inverseAvx512(plan, tw, in, out, scr, {});
        else if (fwd)
            ntt::backends::forwardBatchAvx512(plan, tw, il, in, out, scr);
        else
            ntt::backends::inverseBatchAvx512(plan, tw, il, in, out, scr);
#endif
        return;
    }
    if (il == 0) {
        if (fwd)
            ntt::negacyclicForward(t, s.backend, in, out, scr);
        else
            ntt::negacyclicInverse(t, s.backend, in, out, scr);
    } else {
        if (fwd)
            ntt::negacyclicForwardBatch(t, s.backend, il, in, out, scr);
        else
            ntt::negacyclicInverseBatch(t, s.backend, il, in, out, scr);
    }
}

const char*
redName(Reduction r)
{
    return r == Reduction::ShoupLazy ? "shoup" : "barrett";
}

const char*
fusionName(StageFusion f)
{
    return f == StageFusion::Radix4 ? "radix4" : "radix2";
}

/** The double-word product a reduction multiplies with. */
const char*
productName(Reduction r)
{
    return r == Reduction::BarrettKaratsuba ? "karatsuba" : "school";
}

const char*
variantName(MqxVariant v)
{
    switch (v) {
      case MqxVariant::MulOnly: return "mul-only";
      case MqxVariant::CarryOnly: return "carry-only";
      case MqxVariant::Full: return "full";
      case MqxVariant::MulhiCarry: return "mulhi-carry";
      case MqxVariant::FullPredicated: return "full-predicated";
    }
    return "?";
}

// ---------------------------------------------------------------------------
// The configuration space.
// ---------------------------------------------------------------------------

struct Prime
{
    const char* label;
    ntt::NttPrime prime;
};

const std::vector<Prime>&
primes()
{
    static const std::vector<Prime> p = {
        {"q124", ntt::findNttPrime(124, 17)},
        {"q40", ntt::findNttPrime(40, 17)},
    };
    return p;
}

/** The (reduction, fusion) rows of a cyclic or MQX block, in file
 *  order: each Barrett row is followed by its Karatsuba twin. */
constexpr std::pair<Reduction, StageFusion> kShapes[] = {
    {Reduction::ShoupLazy, StageFusion::Radix2},
    {Reduction::ShoupLazy, StageFusion::Radix4},
    {Reduction::Barrett, StageFusion::Radix2},
    {Reduction::BarrettKaratsuba, StageFusion::Radix2},
    {Reduction::Barrett, StageFusion::Radix4},
    {Reduction::BarrettKaratsuba, StageFusion::Radix4},
};

std::string
label(std::initializer_list<std::string> parts)
{
    std::string s;
    for (const auto& p : parts) {
        if (!s.empty())
            s += ' ';
        s += p;
    }
    return s;
}

void
addCyclic(std::vector<Config>& out)
{
    for (const Prime& pr : primes())
        for (size_t n : {size_t{2}, size_t{16}, size_t{256}, size_t{4096},
                         size_t{32768}})
            for (bool fwd : {true, false})
                for (auto [red, fu] : kShapes) {
                    out.push_back(
                        {label({"cyclic", fwd ? "fwd" : "inv", pr.label,
                                "n=" + std::to_string(n), redName(red),
                                fusionName(fu), productName(red)}),
                         [=](const Slot& s, uint64_t& h) {
                             ntt::NttPlan plan(pr.prime, n);
                             ResidueVector in(n), o(n), scr(n);
                             fillRandom(in.span(), pr.prime.q, n * 31 + fwd);
                             cyclic(s, fwd, plan, in.span(), o.span(),
                                    scr.span(), red, fu);
                             Fnv f;
                             f.span(o.span());
                             h = f.h;
                             return true;
                         }});
                }
}

void
addMqxVariants(std::vector<Config>& out)
{
    for (const Prime& pr : primes())
        for (size_t n : {size_t{16}, size_t{4096}})
            for (MqxVariant v :
                 {MqxVariant::MulOnly, MqxVariant::CarryOnly, MqxVariant::Full,
                  MqxVariant::MulhiCarry, MqxVariant::FullPredicated})
                for (bool fwd : {true, false})
                    for (auto [red, fu] : kShapes) {
                        out.push_back(
                            {label({"mqx", variantName(v), fwd ? "fwd" : "inv",
                                    pr.label, "n=" + std::to_string(n),
                                    redName(red), fusionName(fu),
                                    productName(red)}),
                             [=](const Slot& s, uint64_t& h) {
                                 if (s.backend != Backend::MqxEmulate)
                                     return false;
                                 ntt::NttPlan plan(pr.prime, n);
                                 ResidueVector in(n), o(n), scr(n);
                                 fillRandom(in.span(), pr.prime.q,
                                            n * 31 + fwd);
                                 if (fwd)
                                     ntt::forwardMqx(plan, v, false, in.span(),
                                                     o.span(), scr.span(), red,
                                                     fu);
                                 else
                                     ntt::inverseMqx(plan, v, false, in.span(),
                                                     o.span(), scr.span(), red,
                                                     fu);
                                 Fnv f;
                                 f.span(o.span());
                                 h = f.h;
                                 return true;
                             }});
                    }
}

void
addNegacyclic(std::vector<Config>& out)
{
    for (const Prime& pr : primes()) {
        for (size_t n : {size_t{2}, size_t{16}, size_t{256}, size_t{4096},
                         size_t{32768}})
            for (bool fwd : {true, false})
                out.push_back(
                    {label({"negacyclic", fwd ? "fwd" : "inv", pr.label,
                            "n=" + std::to_string(n)}),
                     [=](const Slot& s, uint64_t& h) {
                         ntt::NegacyclicTables t(pr.prime, n);
                         ResidueVector in(n), o(n), scr(n);
                         fillRandom(in.span(), pr.prime.q, n * 37 + fwd);
                         negacyclic(s, fwd, t, 0, in.span(), o.span(),
                                    scr.span());
                         Fnv f;
                         f.span(o.span());
                         h = f.h;
                         return true;
                     }});
        // Batch kernels at fixed interleave factors (any il in 1..64 is
        // legal on every backend), plus the cyclic per-lane batch loop.
        for (size_t n : {size_t{16}, size_t{256}, size_t{4096}})
            for (size_t il : {size_t{1}, size_t{3}, size_t{4}, size_t{8}})
                for (bool fwd : {true, false}) {
                    out.push_back(
                        {label({"negacyclic-batch", fwd ? "fwd" : "inv",
                                pr.label, "n=" + std::to_string(n),
                                "il=" + std::to_string(il)}),
                         [=](const Slot& s, uint64_t& h) {
                             ntt::NegacyclicTables t(pr.prime, n);
                             ResidueVector in(il * n), o(il * n),
                                 scr(il * n);
                             fillRandom(in.span(), pr.prime.q,
                                        n * 41 + il * 3 + fwd);
                             negacyclic(s, fwd, t, il, in.span(), o.span(),
                                        scr.span());
                             Fnv f;
                             f.span(o.span());
                             h = f.h;
                             return true;
                         }});
                    out.push_back(
                        {label({"cyclic-batch", fwd ? "fwd" : "inv",
                                pr.label, "n=" + std::to_string(n),
                                "il=" + std::to_string(il)}),
                         [=](const Slot& s, uint64_t& h) {
                             if (s.emulated_avx512)
                                 return false;
                             ntt::NttPlan plan(pr.prime, n);
                             ResidueVector in(il * n), o(il * n),
                                 scr(il * n);
                             fillRandom(in.span(), pr.prime.q,
                                        n * 43 + il * 3 + fwd);
                             if (fwd)
                                 ntt::forwardBatch(plan, s.backend, il,
                                                   in.span(), o.span(),
                                                   scr.span());
                             else
                                 ntt::inverseBatch(plan, s.backend, il,
                                                   in.span(), o.span(),
                                                   scr.span());
                             Fnv f;
                             f.span(o.span());
                             h = f.h;
                             return true;
                         }});
                }
    }
}

rns::RnsPolynomial
randomPoly(const rns::RnsBasis& basis, size_t n, uint64_t seed)
{
    rns::RnsPolynomial p(basis, n);
    for (size_t c = 0; c < basis.size(); ++c)
        fillRandom(p.channel(c).span(), basis.prime(c).q, seed * 7 + c);
    return p;
}

void
hashPoly(Fnv& f, const rns::RnsPolynomial& p)
{
    for (size_t c = 0; c < p.basis().size(); ++c)
        f.span(p.channel(c).span());
}

void
addEngine(std::vector<Config>& out)
{
    static const rns::RnsBasis basis(124, 17, 3);
    for (size_t n : {size_t{16}, size_t{4096}})
        for (size_t threads : {size_t{1}, size_t{3}})
            for (const char* op : {"polymul", "fma", "polymul-batch"}) {
                out.push_back(
                    {label({"engine", op, "k=3", "n=" + std::to_string(n),
                            "T=" + std::to_string(threads)}),
                     [=](const Slot& s, uint64_t& h) {
                         if (s.emulated_avx512)
                             return false;
                         engine::Engine eng(s.backend, threads);
                         // Ten products: whole tiles of il = 4 or 8 plus a
                         // remainder, so the batch paths run both legs.
                         std::vector<rns::RnsPolynomial> a, b;
                         for (uint64_t i = 0; i < 10; ++i) {
                             a.push_back(randomPoly(basis, n, 100 + i));
                             b.push_back(randomPoly(basis, n, 200 + i));
                         }
                         std::vector<std::pair<const rns::RnsPolynomial*,
                                               const rns::RnsPolynomial*>>
                             prods;
                         for (size_t i = 0; i < a.size(); ++i)
                             prods.push_back({&a[i], &b[i]});
                         Fnv f;
                         if (std::strcmp(op, "polymul") == 0) {
                             hashPoly(f, eng.polymulNegacyclic(a[0], b[0]));
                         } else if (std::strcmp(op, "fma") == 0) {
                             hashPoly(f, eng.fmaBatch(prods));
                         } else {
                             for (const auto& p :
                                  eng.polymulNegacyclicBatch(prods))
                                 hashPoly(f, p);
                         }
                         h = f.h;
                         return true;
                     }});
            }
}

/** The six BLAS ops on a slot: the public blas:: dispatch, or the
 *  emulated AVX-512 tier's entry points directly. */
struct BlasKernels
{
    using Binary = std::function<void(const Modulus&, DConstSpan, DConstSpan,
                                      DSpan)>;
    Binary vadd, vsub, vmul;
    std::function<void(const Modulus&, const DConstSpan*, const DConstSpan*,
                       size_t, DSpan)>
        vdot;
    std::function<void(const Modulus&, const U128&, DConstSpan, DSpan)> axpy;
    std::function<void(const Modulus&, DConstSpan, DConstSpan, DSpan, size_t,
                       size_t)>
        gemv;
};

BlasKernels
blasKernels(const Slot& s)
{
#if MQX_BUILD_AVX512
    if (s.emulated_avx512) {
        namespace be = blas::backends;
        return {be::vaddAvx512, be::vsubAvx512, be::vmulAvx512,
                be::vdotAvx512, be::axpyAvx512, be::gemvAvx512};
    }
#endif
    const Backend b = s.backend;
    return {[b](auto&&... x) { blas::vadd(b, x...); },
            [b](auto&&... x) { blas::vsub(b, x...); },
            [b](auto&&... x) { blas::vmul(b, x...); },
            [b](auto&&... x) { blas::vdot(b, x...); },
            [b](auto&&... x) { blas::axpy(b, x...); },
            [b](auto&&... x) { blas::gemv(b, x...); }};
}

void
addBlas(std::vector<Config>& out)
{
    for (const Prime& pr : primes()) {
        // Lengths off the 4- and 8-lane grid run the scalar tails.
        for (const char* op : {"vadd", "vsub", "vmul", "axpy"})
            for (size_t n : {size_t{1}, size_t{7}, size_t{64}, size_t{1024}})
                out.push_back(
                    {label({"blas", op, pr.label, "n=" + std::to_string(n)}),
                     [=](const Slot& s, uint64_t& h) {
                         const BlasKernels k = blasKernels(s);
                         const Modulus m(pr.prime.q);
                         ResidueVector a(n), b(n), c(n);
                         fillRandom(a.span(), pr.prime.q, n * 47 + 1);
                         fillRandom(b.span(), pr.prime.q, n * 47 + 2);
                         const std::string o = op;
                         if (o == "axpy") {
                             // y = c (a copy of b), alpha = a[0].
                             fillRandom(c.span(), pr.prime.q, n * 47 + 2);
                             k.axpy(m, U128::fromParts(a.span().hi[0],
                                                       a.span().lo[0]),
                                    b.span(), c.span());
                         } else {
                             (o == "vadd"   ? k.vadd
                              : o == "vsub" ? k.vsub
                                            : k.vmul)(m, a.span(), b.span(),
                                                      c.span());
                         }
                         Fnv f;
                         f.span(c.span());
                         h = f.h;
                         return true;
                     }});
        // k across the 15-pair fold of the IFMA lazy dot product.
        for (size_t k : {size_t{1}, size_t{15}, size_t{16}, size_t{31}})
            out.push_back(
                {label({"blas", "vdot", pr.label, "n=67",
                        "k=" + std::to_string(k)}),
                 [=](const Slot& s, uint64_t& h) {
                     const size_t n = 67;
                     const Modulus m(pr.prime.q);
                     std::vector<ResidueVector> a, b;
                     std::vector<DConstSpan> as, bs;
                     for (size_t j = 0; j < k; ++j) {
                         a.emplace_back(n);
                         b.emplace_back(n);
                         fillRandom(a.back().span(), pr.prime.q, 53 * j + 1);
                         fillRandom(b.back().span(), pr.prime.q, 53 * j + 2);
                     }
                     for (size_t j = 0; j < k; ++j) {
                         as.push_back(a[j].span());
                         bs.push_back(b[j].span());
                     }
                     ResidueVector acc(n);
                     fillRandom(acc.span(), pr.prime.q, 53 * k + 3);
                     blasKernels(s).vdot(m, as.data(), bs.data(), k,
                                         acc.span());
                     Fnv f;
                     f.span(acc.span());
                     h = f.h;
                     return true;
                 }});
        out.push_back(
            {label({"blas", "gemv", pr.label, "rows=5", "cols=37"}),
             [=](const Slot& s, uint64_t& h) {
                 const size_t rows = 5, cols = 37;
                 const Modulus m(pr.prime.q);
                 ResidueVector mat(rows * cols), x(cols), y(rows);
                 fillRandom(mat.span(), pr.prime.q, 59);
                 fillRandom(x.span(), pr.prime.q, 61);
                 blasKernels(s).gemv(m, mat.span(), x.span(), y.span(), rows,
                                     cols);
                 Fnv f;
                 f.span(y.span());
                 h = f.h;
                 return true;
             }});
    }
}

/**
 * The PISA proxy's words, wrong by design but fixed: the per-channel
 * transforms at n = 4096, the il = 8 batch kernels and every BLAS row
 * that fills a vector (n = 1 and 7 run only the scalar tail, whose
 * words match Table-2 emulation), rerun on the MQX-PISA slot under a
 * "pisa" prefix.
 */
void
addPisa(std::vector<Config>& out)
{
    const size_t end = out.size();
    for (size_t i = 0; i < end; ++i) {
        const std::string name = out[i].name;
        const bool per_channel = (name.starts_with("cyclic ") ||
                                  name.starts_with("negacyclic ")) &&
                                 name.find(" n=4096") != std::string::npos;
        const bool batch = name.starts_with("negacyclic-batch ") &&
                           name.ends_with(" il=8");
        const bool blas = name.starts_with("blas ") &&
                          !name.ends_with(" n=1") && !name.ends_with(" n=7");
        if (per_channel || batch || blas)
            out.push_back({"pisa " + name, out[i].run, true});
    }
}

std::vector<Config>
allConfigs()
{
    std::vector<Config> c;
    addCyclic(c);
    addMqxVariants(c);
    addNegacyclic(c);
    addEngine(c);
    addBlas(c);
    addPisa(c);
    return c;
}

// ---------------------------------------------------------------------------
// Driver.
// ---------------------------------------------------------------------------

int
run(const char* golden_path)
{
    std::map<std::string, std::string> golden;
    if (golden_path) {
        std::ifstream in(golden_path);
        if (!in) {
            std::fprintf(stderr, "wordhash: cannot read %s\n", golden_path);
            return 2;
        }
        std::string line;
        while (std::getline(in, line)) {
            if (line.empty() || line[0] == '#')
                continue;
            const size_t sp = line.rfind(' ');
            golden[line.substr(0, sp)] = line.substr(sp + 1);
        }
    } else {
        std::printf("# FNV-1a 64 of the output words per configuration; "
                    "regenerate with tools/wordhash\n");
    }

    std::map<std::string, int> ok, skipped;
    int failures = 0, unrun = 0;
    const std::vector<Config> configs = allConfigs();
    for (const Config& c : configs) {
        std::string agreed;
        std::string first_slot;
        for (const Slot& s : slots()) {
            if (!slotAvailable(s)) {
                ++skipped[s.name];
                continue;
            }
            if ((s.backend == Backend::MqxPisa) != c.pisa)
                continue;
            uint64_t h = 0;
            if (!c.run(s, h))
                continue;
            const std::string hs = hex(h);
            if (agreed.empty()) {
                agreed = hs;
                first_slot = s.name;
            } else if (hs != agreed) {
                std::fprintf(stderr, "MISMATCH %s: %s %s vs %s %s\n",
                             c.name.c_str(), first_slot.c_str(),
                             agreed.c_str(), s.name, hs.c_str());
                ++failures;
                continue;
            }
            ++ok[s.name];
        }
        if (!golden_path) {
            if (!agreed.empty())
                std::printf("%s %s\n", c.name.c_str(), agreed.c_str());
            continue;
        }
        auto it = golden.find(c.name);
        if (it == golden.end()) {
            std::fprintf(stderr, "MISSING from golden file: %s\n",
                         c.name.c_str());
            ++failures;
        } else if (agreed.empty()) {
            ++unrun;
        } else if (it->second != agreed) {
            std::fprintf(stderr, "CHANGED %s: golden %s, now %s\n",
                         c.name.c_str(), it->second.c_str(), agreed.c_str());
            ++failures;
        }
    }
    if (golden_path && golden.size() != configs.size()) {
        std::fprintf(stderr, "golden file has %zu lines, tool %zu configs\n",
                     golden.size(), configs.size());
        ++failures;
    }

    std::FILE* report = golden_path ? stdout : stderr;
    for (const Slot& s : slots()) {
        if (skipped.count(s.name))
            std::fprintf(report, "%-17s skipped (not available here)\n",
                         s.name);
        else
            std::fprintf(report, "%-17s %d configurations ok\n", s.name,
                         ok[s.name]);
    }
    if (golden_path)
        std::printf("%zu configurations, %d with no backend here, "
                    "%d failures\n",
                    configs.size(), unrun, failures);
    return failures == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char** argv)
{
    if (argc == 3 && std::strcmp(argv[1], "--check") == 0)
        return run(argv[2]);
    if (argc == 1)
        return run(nullptr);
    std::fprintf(stderr, "usage: wordhash [--check WORDHASH.txt]\n");
    return 2;
}
