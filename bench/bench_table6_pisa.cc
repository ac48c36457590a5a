/**
 * @file
 * Table 6 regeneration: PISA validation. For each Table-5 pair, run the
 * full NTT (size 2^14, "the average among the NTT sizes targeted in this
 * paper") with the target instruction and with its proxy substituted,
 * and report the Eq.-12 relative error. The paper's measured errors are
 * printed for comparison.
 */
#include "bench_common.h"

#include "pisa/pisa.h"

using namespace mqx;
using namespace mqx::bench;

int
main()
{
    printHostHeader("Table 6: relative error of PISA-projected runtime");
    const auto& prime = ntt::defaultBenchPrime();
    const size_t n = 1u << 14; // Section 5.2

    ntt::NttPlan plan(prime, n);
    auto input_u = randomResidues(n, prime.q, 0x7ab1e6);
    ResidueVector in = ResidueVector::fromU128(input_u);
    ResidueVector out(n), scratch(n);

    struct PaperRow
    {
        pisa::ValidationPair pair;
        const char* intel;
        const char* amd;
    };
    const PaperRow rows[] = {
        {pisa::ValidationPair::Avx2WideningMul, "3.23%", "2.64%"},
        {pisa::ValidationPair::Avx512MaskAdd, "-7.68%", "5.25%"},
        {pisa::ValidationPair::Avx512MaskSub, "-4.30%", "1.27%"},
    };

    TextTable table("Relative error (Eq. 12) of proxy vs target, NTT 2^14");
    table.setHeader({"target instruction", "proxy instruction",
                     "measured eps", "paper Intel", "paper AMD"});

    for (const auto& row : rows) {
        auto mapping = pisa::validationMapping(row.pair);
        bool avx512_pair = row.pair != pisa::ValidationPair::Avx2WideningMul;
        bool available = avx512_pair ? backendAvailable(Backend::Avx512)
                                     : backendAvailable(Backend::Avx2);
        if (!available) {
            table.addRow({mapping.target, mapping.proxy, "(ISA unavailable)",
                          row.intel, row.amd});
            continue;
        }
        Measurement target = runNttProtocol([&] {
            pisa::runValidationNtt(row.pair, false, plan, in.span(),
                                   out.span(), scratch.span());
        });
        Measurement proxy = runNttProtocol([&] {
            pisa::runValidationNtt(row.pair, true, plan, in.span(),
                                   out.span(), scratch.span());
        });
        double eps = pisa::relativeErrorPct(target.mean_ns, proxy.mean_ns);
        table.addRow({mapping.target, mapping.proxy,
                      formatFixed(eps, 2) + "%", row.intel, row.amd});
        std::fprintf(stderr, "  %s done\n", mapping.target.c_str());
    }
    table.print();
    std::printf("\nPISA passes its sanity check if |eps| stays within a "
                "single-digit percentage\n(paper: all six cases below "
                "8%%; negative = conservative projection).\n");
    return 0;
}
