/**
 * @file
 * Section 5.5 regeneration: schoolbook vs Karatsuba double-word
 * multiplication across NTT variants. The paper finds schoolbook wins
 * on CPUs in almost all variants (average 1.1x where it wins) — the
 * opposite of the GPU result it cites (Karatsuba 2.1x faster on an
 * RTX 4090), because trading one multiply for several additions only
 * pays off when multiplies are disproportionately expensive.
 */
#include "bench_common.h"

using namespace mqx;
using namespace mqx::bench;

namespace {

double
measureNttAlgo(Backend be, const ntt::NttPrime& prime, size_t n, MulAlgo algo)
{
    ntt::NttPlan plan(prime, n);
    auto input_u = randomResidues(n, prime.q, 0x5e5);
    ResidueVector in = ResidueVector::fromU128(input_u);
    ResidueVector out(n), scratch(n);
    // Section 5.5 compares the product algorithms inside the BARRETT
    // butterflies (three full products each); pin the reduction so the
    // Shoup-lazy default (one full product) doesn't dilute the ablation.
    Measurement m = runNttProtocol(
        [&] {
            ntt::forward(plan, be, in.span(), out.span(), scratch.span(),
                         algo, Reduction::Barrett);
        },
        nttProtocolScale(Tier::Scalar, n));
    return nsPerButterfly(m, n);
}

} // namespace

int
main()
{
    printHostHeader(
        "Section 5.5: schoolbook vs Karatsuba multiplication in the NTT");
    const auto& prime = ntt::defaultBenchPrime();
    const size_t sizes[] = {1u << 10, 1u << 12, 1u << 14};

    TextTable table("ns/butterfly by multiplication algorithm");
    table.setHeader({"backend", "n", "schoolbook", "Karatsuba",
                     "school vs karat"});

    std::vector<Backend> backends = {Backend::Scalar};
    if (backendAvailable(Backend::Avx2))
        backends.push_back(Backend::Avx2);
    if (backendAvailable(Backend::Avx512))
        backends.push_back(Backend::Avx512);
    if (backendAvailable(Backend::MqxPisa))
        backends.push_back(Backend::MqxPisa);

    std::vector<double> wins;
    for (Backend be : backends) {
        for (size_t n : sizes) {
            double school = measureNttAlgo(be, prime, n, MulAlgo::Schoolbook);
            double karat = measureNttAlgo(be, prime, n, MulAlgo::Karatsuba);
            table.addRow({backendName(be), std::to_string(n),
                          formatFixed(school, 1), formatFixed(karat, 1),
                          formatSpeedup(karat / school)});
            wins.push_back(karat / school);
        }
        std::fprintf(stderr, "  %s done\n", backendName(be).c_str());
    }
    table.print();
    std::printf("\nGeomean Karatsuba/schoolbook ratio: %s "
                "[paper: schoolbook ~1.1x faster on CPUs; Karatsuba 2.1x "
                "faster on the RTX 4090 GPU]\n",
                formatSpeedup(geomean(wins)).c_str());
    return 0;
}
