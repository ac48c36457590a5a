/**
 * @file
 * Machine-code analysis tests: instruction table integrity, kernel
 * traces from the recording ISA, and the resource-pressure math.
 */
#include <gtest/gtest.h>

#include <map>

#include "mca/kernel_traces.h"
#include "mca/pressure.h"
#include "ntt/prime.h"
#include "test_util.h"

namespace mqx {
namespace {

Modulus
testModulus()
{
    return Modulus(ntt::smallTestPrime().q);
}

std::map<std::string, int>
histogram(const std::vector<mca::TracedInstr>& trace)
{
    std::map<std::string, int> h;
    for (const auto& t : trace)
        ++h[t.mnemonic];
    return h;
}

TEST(McaTable, AllMnemonicsResolve)
{
    for (const auto& d : mca::instrTable()) {
        EXPECT_EQ(mca::instrDesc(d.mnemonic).mnemonic, d.mnemonic);
        EXPECT_NE(d.ports, 0u);
        EXPECT_GE(d.uops, 1);
    }
    EXPECT_THROW(mca::instrDesc("not-an-instruction"), InvalidArgument);
}

TEST(McaTable, MqxInstructionsSharePortsWithProxies)
{
    // The central PISA assumption, encoded: proposed instructions bind
    // to the same ports as their Table-3 proxies.
    EXPECT_EQ(mca::instrDesc("vpadcq").ports, mca::instrDesc("vpaddq{k}").ports);
    EXPECT_EQ(mca::instrDesc("vpsbbq").ports, mca::instrDesc("vpsubq{k}").ports);
    EXPECT_EQ(mca::instrDesc("vpmulq").ports, mca::instrDesc("vpmullq").ports);
    EXPECT_TRUE(mca::instrDesc("vpadcq").proposed);
    EXPECT_FALSE(mca::instrDesc("vpaddq").proposed);
}

TEST(McaTrace, AddModInstructionCounts)
{
    Modulus m = testModulus();
    auto avx = mca::traceKernel(mca::Kernel::AddMod, mca::TraceFlavor::Avx512,
                                m);
    auto mqx = mca::traceKernel(mca::Kernel::AddMod, mca::TraceFlavor::MqxFull,
                                m);
    // Listing 2 measures 17 instructions for the AVX-512 addmod body
    // after the compiler folds constants; our trace keeps every policy
    // op explicit (21), so allow slack while requiring MQX to be much
    // shorter.
    EXPECT_GE(avx.size(), 15u);
    EXPECT_LE(avx.size(), 24u);
    EXPECT_LE(mqx.size(), 12u);
    EXPECT_LT(mqx.size(), avx.size());

    auto h = histogram(mqx);
    EXPECT_EQ(h["vpadcq"], 2); // el/eh chain (Listing 3)
    EXPECT_EQ(h["vpsbbq"], 2); // conditional subtract chain
    EXPECT_EQ(h["vpblendmq"], 2);
    EXPECT_EQ(histogram(avx)["vpadcq"], 0); // no proposed instrs in base
}

TEST(McaTrace, PredicatedVariantDropsBlends)
{
    Modulus m = testModulus();
    auto full = mca::traceKernel(mca::Kernel::AddMod,
                                 mca::TraceFlavor::MqxFull, m);
    auto pred = mca::traceKernel(mca::Kernel::AddMod,
                                 mca::TraceFlavor::MqxPredicated, m);
    auto hp = histogram(pred);
    EXPECT_EQ(hp["vpblendmq"], 0);
    EXPECT_EQ(hp["vpsbbq{p}"], 2);
    EXPECT_LT(pred.size(), full.size());
}

TEST(McaTrace, MulModFlavors)
{
    Modulus m = testModulus();
    auto base = mca::traceKernel(mca::Kernel::MulMod,
                                 mca::TraceFlavor::Avx512, m);
    auto mqx = mca::traceKernel(mca::Kernel::MulMod, mca::TraceFlavor::MqxFull,
                                m);
    auto mulhi = mca::traceKernel(mca::Kernel::MulMod,
                                  mca::TraceFlavor::MqxMulhiCarry, m);

    auto hb = histogram(base);
    auto hm = histogram(mqx);
    auto hh = histogram(mulhi);
    // Schoolbook product + Barrett: 4 + 4 + 1 widening multiplies.
    EXPECT_EQ(hm["vpmulq"], 9);
    EXPECT_EQ(hb["vpmulq"], 0);
    EXPECT_EQ(hb["vpmuludq"], 36); // 9 emulated mulWides, 4 partials each
    // +Mh models each widening multiply as mullo + mulhi.
    EXPECT_EQ(hh["vpmulq"], 0);
    EXPECT_EQ(hh["vpmulhq"], 9);
    // MQX trace must be much shorter than the AVX-512 trace.
    EXPECT_LT(mqx.size() * 2, base.size());
    // +M alone and +C alone land between base and full MQX.
    auto monly = mca::traceKernel(mca::Kernel::MulMod,
                                  mca::TraceFlavor::MqxMulOnly, m);
    auto conly = mca::traceKernel(mca::Kernel::MulMod,
                                  mca::TraceFlavor::MqxCarryOnly, m);
    EXPECT_LT(mqx.size(), monly.size());
    EXPECT_LT(monly.size(), base.size());
    EXPECT_LT(mqx.size(), conly.size());
    EXPECT_LT(conly.size(), base.size());
}

TEST(McaTrace, ButterflyComposesKernels)
{
    Modulus m = testModulus();
    auto bfly = mca::traceKernel(mca::Kernel::Butterfly,
                                 mca::TraceFlavor::Avx512, m);
    auto add = mca::traceKernel(mca::Kernel::AddMod, mca::TraceFlavor::Avx512,
                                m);
    auto sub = mca::traceKernel(mca::Kernel::SubMod, mca::TraceFlavor::Avx512,
                                m);
    auto mul = mca::traceKernel(mca::Kernel::MulMod, mca::TraceFlavor::Avx512,
                                m);
    EXPECT_EQ(bfly.size(), add.size() + sub.size() + mul.size());
}

TEST(McaPressure, TotalsAndBottleneck)
{
    Modulus m = testModulus();
    auto trace = mca::traceKernel(mca::Kernel::AddMod,
                                  mca::TraceFlavor::Avx512, m);
    auto result = mca::analyzeTrace(trace);
    EXPECT_EQ(result.rows.size(), trace.size());
    double sum = 0.0;
    for (double p : result.totals)
        sum += p;
    EXPECT_DOUBLE_EQ(sum, static_cast<double>(result.total_uops));
    double max_port = 0.0;
    for (double p : result.totals)
        max_port = std::max(max_port, p);
    EXPECT_DOUBLE_EQ(result.rthroughput, max_port);
    EXPECT_GT(result.latency_sum, 0.0);
}

TEST(McaPressure, MqxReducesBottleneck)
{
    // The static model must agree with the paper's direction: MQX's
    // butterfly has materially lower port pressure than AVX-512's.
    Modulus m = testModulus();
    auto base = mca::analyzeTrace(mca::traceKernel(
        mca::Kernel::Butterfly, mca::TraceFlavor::Avx512, m));
    auto mqx = mca::analyzeTrace(mca::traceKernel(
        mca::Kernel::Butterfly, mca::TraceFlavor::MqxFull, m));
    EXPECT_LT(mqx.rthroughput, base.rthroughput);
    EXPECT_LT(mqx.total_uops, base.total_uops);
}

TEST(McaPressure, IfmaShoupMulReplacesEmulatedMultiplies)
{
    // The IFMA flavour traces the shipped limb kernel: 34 vpmadd52 ops
    // (16 for h = a*wq >> 128, 18 for a*w + h*(2^128 - q)) and no
    // emulated 64x64 multiply, at about half the port-0 pressure.
    Modulus m(ntt::defaultBenchPrime().q);
    auto emu_trace =
        mca::traceKernel(mca::Kernel::ShoupMul, mca::TraceFlavor::Avx512, m);
    auto ifma_trace = mca::traceKernel(mca::Kernel::ShoupMul,
                                       mca::TraceFlavor::Avx512Ifma, m);
    auto h = histogram(ifma_trace);
    EXPECT_EQ(h["vpmadd52luq"] + h["vpmadd52huq"], 34);
    EXPECT_EQ(h["vpmullq"], 0);
    EXPECT_EQ(h["vpmuludq"], 0);
    EXPECT_GT(histogram(emu_trace)["vpmuludq"], 0);
    EXPECT_EQ(mca::instrDesc("vpmadd52luq").ports, unsigned{mca::kPort0});
    EXPECT_EQ(mca::instrDesc("vpmadd52huq").latency, 4);
    auto emu = mca::analyzeTrace(emu_trace);
    auto ifma = mca::analyzeTrace(ifma_trace);
    EXPECT_LT(ifma.totals[0], 0.6 * emu.totals[0]);
    EXPECT_LT(ifma.rthroughput, emu.rthroughput);
    // The add/sub kernels are the plain AVX-512 sequences under IFMA.
    for (mca::Kernel k : {mca::Kernel::AddMod, mca::Kernel::SubMod})
        EXPECT_EQ(histogram(mca::traceKernel(k, mca::TraceFlavor::Avx512Ifma,
                                             m)),
                  histogram(mca::traceKernel(k, mca::TraceFlavor::Avx512, m)))
            << mca::kernelName(k);
}

TEST(McaPressure, IfmaBarrettMulReplacesEmulatedMultiplies)
{
    // The IFMA Barrett multiply: two 17-op limb products (a*b and
    // x1*mu) and 9 ops for x + e*(2^128 - q) — 43 vpmadd52, no emulated
    // 64x64 multiply, no adc/sbb — at fewer port-0 uops than the
    // emulated AVX-512 Barrett.
    for (const auto* prime :
         {&ntt::defaultBenchPrime(), &ntt::smallTestPrime()}) {
        Modulus m(prime->q);
        auto emu_trace = mca::traceKernel(mca::Kernel::MulMod,
                                          mca::TraceFlavor::Avx512, m);
        auto ifma_trace = mca::traceKernel(mca::Kernel::MulMod,
                                           mca::TraceFlavor::Avx512Ifma, m);
        auto h = histogram(ifma_trace);
        EXPECT_EQ(h["vpmadd52luq"] + h["vpmadd52huq"], 43);
        EXPECT_EQ(h["vpmullq"], 0);
        EXPECT_EQ(h["vpmuludq"], 0);
        auto emu = mca::analyzeTrace(emu_trace);
        auto ifma = mca::analyzeTrace(ifma_trace);
        EXPECT_LT(ifma.totals[0], emu.totals[0]);
        EXPECT_LT(ifma.total_uops, emu.total_uops);
        EXPECT_LT(ifma.rthroughput, emu.rthroughput);
    }
}

TEST(McaPressure, IfmaLimbJoinsLeavePort0ToTheMultiplies)
{
    // The IFMA limb splits and joins are VBMI2 funnel shifts (port 0,
    // one where a srli/slli pair took two) and vpshufb byte shuffles
    // (port 5): a Shoup multiply keeps its 34 vpmadd52 and 10 shifts on
    // port 0, where the srli/slli form took 16. Every IFMA port-0 total
    // is below the srli/slli kernels' model values (Shoup multiply 50,
    // Barrett 78, lazy butterfly 60), and the NTT's steady-state
    // forward butterfly, (w, wq) split included, is at most 50 port-0-
    // only uops (it was 56).
    Modulus m(ntt::defaultBenchPrime().q);
    auto trace = [&](mca::Kernel k) {
        return mca::traceKernel(k, mca::TraceFlavor::Avx512Ifma, m);
    };
    EXPECT_EQ(mca::instrDesc("vpshrdq").ports, unsigned{mca::kPort0});
    EXPECT_EQ(mca::instrDesc("vpshufb").ports, unsigned{mca::kPort5});
    auto h = histogram(trace(mca::Kernel::ShoupMul));
    EXPECT_EQ(h["vpmadd52luq"] + h["vpmadd52huq"], 34);
    EXPECT_EQ(h["vpsllq"], 0);
    EXPECT_EQ(h["vpshufb"], 2); // the top limbs of a and of h
    auto shoup = mca::analyzeTrace(trace(mca::Kernel::ShoupMul));
    EXPECT_EQ(shoup.port0_only, 44);
    EXPECT_LT(shoup.totals[0], 50.0);
    EXPECT_LT(mca::analyzeTrace(trace(mca::Kernel::MulMod)).totals[0], 78.0);
    auto lazy = mca::analyzeTrace(trace(mca::Kernel::LazyButterfly));
    EXPECT_EQ(lazy.port0_only, 44);
    EXPECT_LT(lazy.totals[0], 60.0);
    auto fwd = mca::analyzeTrace(trace(mca::Kernel::ForwardButterfly));
    EXPECT_EQ(fwd.port0_only, 46);
    EXPECT_LE(fwd.port0_only, 50);
}

TEST(McaPressure, HeadroomLazyButterflyDropsTheCarryChain)
{
    // Non-MQX flavors run the headroom lazy add/sub: fewer uops and
    // fewer compares than the same butterfly on the adc/sbb chain. MQX
    // flavors keep the chain, so both traces are one and the same.
    Modulus m(ntt::defaultBenchPrime().q);
    for (auto flavor : {mca::TraceFlavor::Avx512,
                        mca::TraceFlavor::Avx512Ifma}) {
        auto head = mca::traceKernel(mca::Kernel::LazyButterfly, flavor, m);
        auto carry =
            mca::traceKernel(mca::Kernel::LazyButterflyCarry, flavor, m);
        EXPECT_LT(head.size(), carry.size()) << mca::flavorName(flavor);
        EXPECT_LT(histogram(head)["vpcmpuq"], histogram(carry)["vpcmpuq"]);
        EXPECT_LT(mca::analyzeTrace(head).total_uops,
                  mca::analyzeTrace(carry).total_uops);
    }
    for (auto flavor : {mca::TraceFlavor::MqxFull,
                        mca::TraceFlavor::MqxCarryOnly,
                        mca::TraceFlavor::MqxMulOnly}) {
        EXPECT_EQ(histogram(mca::traceKernel(mca::Kernel::LazyButterfly,
                                             flavor, m)),
                  histogram(mca::traceKernel(
                      mca::Kernel::LazyButterflyCarry, flavor, m)))
            << mca::flavorName(flavor);
    }
}

TEST(McaTrace, Fig6ButterflyTracesArePinned)
{
    // The Fig. 6 butterfly (Listing 2/3 add + sub, Barrett multiply)
    // must not move with the lazy helpers or the IFMA kernels: exact
    // instruction counts for the AVX-512 base and full MQX flavors.
    Modulus m = testModulus();
    auto base = histogram(mca::traceKernel(mca::Kernel::Butterfly,
                                           mca::TraceFlavor::Avx512, m));
    const std::map<std::string, int> want_base = {
        {"kandb", 4},       {"knotb", 1},     {"korb", 17},
        {"vmovdqa64", 2},   {"vpaddq", 59},   {"vpaddq{k}", 14},
        {"vpandq", 18},     {"vpblendmq", 8}, {"vpbroadcastq", 10},
        {"vpcmpeqq", 4},    {"vpcmpuq", 35},  {"vpmullq", 11},
        {"vpmuludq", 36},   {"vporq", 4},     {"vpsllq", 4},
        {"vpsrlq", 58},     {"vpsubq", 10},   {"vpsubq{k}", 6}};
    EXPECT_EQ(base, want_base);
    auto mqx = histogram(mca::traceKernel(mca::Kernel::Butterfly,
                                          mca::TraceFlavor::MqxFull, m));
    const std::map<std::string, int> want_mqx = {
        {"kandb", 3},     {"korb", 4},      {"vpadcq", 12},
        {"vpaddq", 2},    {"vpaddq{k}", 4}, {"vpblendmq", 8},
        {"vpcmpeqq", 3},  {"vpcmpuq", 8},   {"vpmullq", 2},
        {"vpmulq", 9},    {"vporq", 4},     {"vpsbbq", 6},
        {"vpsllq", 4},    {"vpsrlq", 4},    {"vpsubq", 4},
        {"vpsubq{k}", 2}};
    EXPECT_EQ(mqx, want_mqx);
}

TEST(McaPressure, RenderingContainsInstructionsAndPorts)
{
    Modulus m = testModulus();
    auto result = mca::analyzeTrace(mca::traceKernel(
        mca::Kernel::AddMod, mca::TraceFlavor::MqxFull, m));
    std::string text = mca::renderPressureTable("MQX", result);
    EXPECT_NE(text.find("vpadcq"), std::string::npos);
    EXPECT_NE(text.find("[0]"), std::string::npos);
    EXPECT_NE(text.find("[5]"), std::string::npos);
    std::string summary = mca::summarizeAnalysis(result);
    EXPECT_NE(summary.find("uops"), std::string::npos);
}

} // namespace
} // namespace mqx
