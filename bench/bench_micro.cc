/**
 * @file
 * google-benchmark microbenchmarks of the kernel primitives: scalar
 * double-word modular ops (both algorithms and both scalar variants),
 * per-backend batch BLAS ops, and per-backend NTTs at a fixed size.
 * These anchor the figure harnesses with statistically robust
 * per-operation numbers.
 */
#include <benchmark/benchmark.h>

#include "bench_util/rng.h"
#include "blas/blas.h"
#include "core/backend.h"
#include "ntt/ntt.h"
#include "ntt/prime.h"
#include "word64/word64.h"

namespace {

using namespace mqx;

const ntt::NttPrime&
benchPrime()
{
    static const ntt::NttPrime& p = ntt::defaultBenchPrime();
    return p;
}

void
BM_ScalarAddMod(benchmark::State& state)
{
    Modulus m(benchPrime().q);
    SplitMix64 rng(1);
    U128 a = rng.nextBelow(m.value()), b = rng.nextBelow(m.value());
    for (auto _ : state) {
        a = m.add(a, b);
        benchmark::DoNotOptimize(a);
    }
}
BENCHMARK(BM_ScalarAddMod);

void
BM_ScalarSubMod(benchmark::State& state)
{
    Modulus m(benchPrime().q);
    SplitMix64 rng(2);
    U128 a = rng.nextBelow(m.value()), b = rng.nextBelow(m.value());
    for (auto _ : state) {
        a = m.sub(a, b);
        benchmark::DoNotOptimize(a);
    }
}
BENCHMARK(BM_ScalarSubMod);

void
BM_ScalarMulMod(benchmark::State& state)
{
    // Barrett on the Eq. 8 (schoolbook) or Eq. 9 (Karatsuba) product.
    const bool karatsuba = state.range(0) != 0;
    Modulus m(benchPrime().q);
    const auto& br = m.barrett();
    SplitMix64 rng(3);
    auto a = mod::toDw(rng.nextBelow(m.value()));
    const auto b = mod::toDw(rng.nextBelow(m.value()));
    for (auto _ : state) {
        a = karatsuba ? mod::mulModKaratsuba(a, b, br)
                      : mod::mulModSchool(a, b, br);
        benchmark::DoNotOptimize(a);
    }
}
BENCHMARK(BM_ScalarMulMod)->Arg(0)->Arg(1)->ArgName("karatsuba");

struct BackendArg
{
    Backend backend;
    const char* name;
};

const BackendArg kBackendArgs[] = {
    {Backend::Scalar, "scalar"},     {Backend::Portable, "portable"},
    {Backend::Avx2, "avx2"},         {Backend::Avx512, "avx512"},
    {Backend::MqxPisa, "mqx_pisa"},
};

void
BM_BlasVmul(benchmark::State& state)
{
    const BackendArg& arg = kBackendArgs[state.range(0)];
    if (!backendAvailable(arg.backend)) {
        state.SkipWithError("backend unavailable");
        return;
    }
    Modulus m(benchPrime().q);
    const size_t len = 1024;
    ResidueVector a =
        ResidueVector::fromU128(randomResidues(len, m.value(), 5));
    ResidueVector b =
        ResidueVector::fromU128(randomResidues(len, m.value(), 6));
    ResidueVector c(len);
    for (auto _ : state)
        blas::vmul(arg.backend, m, a.span(), b.span(), c.span());
    state.SetLabel(arg.name);
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * len);
}
BENCHMARK(BM_BlasVmul)->DenseRange(0, 4)->ArgName("backend");

void
BM_BlasAxpy(benchmark::State& state)
{
    const BackendArg& arg = kBackendArgs[state.range(0)];
    if (!backendAvailable(arg.backend)) {
        state.SkipWithError("backend unavailable");
        return;
    }
    Modulus m(benchPrime().q);
    const size_t len = 1024;
    ResidueVector x =
        ResidueVector::fromU128(randomResidues(len, m.value(), 7));
    ResidueVector y =
        ResidueVector::fromU128(randomResidues(len, m.value(), 8));
    SplitMix64 rng(9);
    U128 alpha = rng.nextBelow(m.value());
    for (auto _ : state)
        blas::axpy(arg.backend, m, alpha, x.span(), y.span());
    state.SetLabel(arg.name);
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * len);
}
BENCHMARK(BM_BlasAxpy)->DenseRange(0, 4)->ArgName("backend");

void
BM_NttForward(benchmark::State& state)
{
    const BackendArg& arg = kBackendArgs[state.range(0)];
    if (!backendAvailable(arg.backend)) {
        state.SkipWithError("backend unavailable");
        return;
    }
    const size_t n = 1u << 12;
    ntt::NttPlan plan(benchPrime(), n);
    ResidueVector in =
        ResidueVector::fromU128(randomResidues(n, benchPrime().q, 10));
    ResidueVector out(n), scratch(n);
    for (auto _ : state) {
        ntt::forward(plan, arg.backend, in.span(), out.span(),
                     scratch.span());
    }
    state.SetLabel(arg.name);
    // butterflies per transform: (n/2) log2 n
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            (n / 2) * 12);
}
BENCHMARK(BM_NttForward)->DenseRange(0, 4)->ArgName("backend");

void
BM_Ntt64Forward(benchmark::State& state)
{
    // Single-word (HEXL-style) NTT: quantifies what the double-word
    // arithmetic costs per butterfly next to BM_NttForward.
    const BackendArg& arg = kBackendArgs[state.range(0)];
    if (arg.backend == Backend::Avx2 || arg.backend == Backend::MqxPisa ||
        !backendAvailable(arg.backend)) {
        state.SkipWithError("backend unavailable for word64");
        return;
    }
    const size_t n = 1u << 12;
    static const uint64_t q = w64::findNttPrime64(58, 18);
    w64::Ntt64Plan plan(q, n);
    SplitMix64 rng(11);
    std::vector<uint64_t> in(n), out(n), scratch(n);
    for (auto& v : in)
        v = rng.next() % q;
    for (auto _ : state)
        w64::forward64(plan, arg.backend, in.data(), out.data(),
                       scratch.data());
    state.SetLabel(arg.name);
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            (n / 2) * 12);
}
BENCHMARK(BM_Ntt64Forward)->Arg(0)->Arg(1)->Arg(3)->ArgName("backend");

} // namespace

BENCHMARK_MAIN();
