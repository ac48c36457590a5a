/**
 * @file
 * Figure 6 regeneration: MQX component sensitivity. Average NTT runtime
 * per butterfly across the paper's sizes, normalized to the AVX-512
 * baseline ("Base"), for +M (widening multiply only), +C (carry only),
 * +M,C (full MQX), +Mh,C (multiply-high variant), and +M,C,P
 * (predicated). All MQX variants use PISA proxy timing, exactly as in
 * the paper. The static port-pressure model's prediction is printed
 * alongside as a cross-check.
 */
#include "bench_common.h"

#include "mca/kernel_traces.h"
#include "mca/pressure.h"

using namespace mqx;
using namespace mqx::bench;

namespace {

double
measureMqxVariantNtt(const ntt::NttPrime& prime, size_t n, MqxVariant v)
{
    ntt::NttPlan plan(prime, n);
    auto input_u = randomResidues(n, prime.q, 0xf16 + n);
    ResidueVector in = ResidueVector::fromU128(input_u);
    ResidueVector out(n), scratch(n);
    // Fig. 6 ablates MQX features inside the paper's Barrett
    // butterflies (three full products each); pin the reduction so the
    // instruction mix matches the figure.
    Measurement m = runNttProtocol(
        [&] {
            ntt::forwardMqx(plan, v, /*pisa=*/true, in.span(), out.span(),
                            scratch.span(), Reduction::Barrett);
        },
        nttProtocolScale(Tier::MqxPisa, n));
    return nsPerButterfly(m, n);
}

} // namespace

int
main()
{
    printHostHeader("Figure 6: sensitivity of NTT runtime to MQX components");
    if (!backendAvailable(Backend::MqxPisa)) {
        std::printf("AVX-512 not available on this host; cannot project "
                    "MQX performance.\n");
        return 0;
    }
    const auto& prime = ntt::defaultBenchPrime();
    const auto& sizes = sol::paperNttSizes();

    // Base = AVX-512.
    std::vector<double> base_per_size;
    for (size_t n : sizes)
        base_per_size.push_back(measureNtt(Tier::Avx512, prime, n));
    double base = geomean(base_per_size);
    std::fprintf(stderr, "  base done\n");

    struct VariantRow
    {
        const char* label;
        MqxVariant variant;
        double paper_norm; // Fig. 6 (approximate bar heights)
    };
    // Fig. 6 shape: +M slightly better than +C; +M,C best; +Mh,C only
    // slightly worse than +M,C; +P adds ~1.1x over +M,C.
    const VariantRow rows[] = {
        {"+M", MqxVariant::MulOnly, 0.55},
        {"+C", MqxVariant::CarryOnly, 0.60},
        {"+M,C", MqxVariant::Full, 0.27},
        {"+Mh,C", MqxVariant::MulhiCarry, 0.30},
        {"+M,C,P", MqxVariant::FullPredicated, 0.25},
    };

    TextTable table("Normalized avg runtime/butterfly (Base = AVX-512 = 1.0)");
    table.setHeader({"config", "measured ns/bfly", "normalized",
                     "paper Fig. 6 (approx)"});
    table.addRow({"Base (AVX-512)", formatFixed(base, 1), "1.00", "1.00"});

    Modulus m(prime.q);
    std::vector<double> measured_norm;
    for (const auto& row : rows) {
        std::vector<double> per_size;
        for (size_t n : sizes)
            per_size.push_back(measureMqxVariantNtt(prime, n, row.variant));
        double v = geomean(per_size);
        measured_norm.push_back(v / base);
        table.addRow({row.label, formatFixed(v, 1),
                      formatFixed(v / base, 2), formatFixed(row.paper_norm, 2)});
        std::fprintf(stderr, "  %s done\n", row.label);
    }
    table.print();
    std::printf("\n");

    // Static model cross-check: bottleneck port pressure per butterfly.
    TextTable model("Static port-pressure model (mca) per butterfly");
    model.setHeader({"config", "uops", "bottleneck cyc", "norm"});
    auto base_trace = mca::analyzeTrace(mca::traceKernel(
        mca::Kernel::Butterfly, mca::TraceFlavor::Avx512, m));
    model.addRow({"Base (AVX-512)", std::to_string(base_trace.total_uops),
                  formatFixed(base_trace.rthroughput, 1), "1.00"});
    const std::pair<const char*, mca::TraceFlavor> flavors[] = {
        {"+M", mca::TraceFlavor::MqxMulOnly},
        {"+C", mca::TraceFlavor::MqxCarryOnly},
        {"+M,C", mca::TraceFlavor::MqxFull},
        {"+Mh,C", mca::TraceFlavor::MqxMulhiCarry},
        {"+M,C,P", mca::TraceFlavor::MqxPredicated},
    };
    for (const auto& [label, flavor] : flavors) {
        auto a = mca::analyzeTrace(
            mca::traceKernel(mca::Kernel::Butterfly, flavor, m));
        model.addRow({label, std::to_string(a.total_uops),
                      formatFixed(a.rthroughput, 1),
                      formatFixed(a.rthroughput / base_trace.rthroughput, 2)});
    }
    model.print();
    std::printf("\nPaper finding reproduced if: +M < +C individually, "
                "+M,C best, +Mh,C within ~10%% of +M,C,\n"
                "and +M,C,P at most ~1.1x better than +M,C.\n");
    return 0;
}
