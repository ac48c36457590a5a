/**
 * @file
 * Key-switching-style dot product with transform-domain residency.
 *
 * The paper's core observation is that specialized accelerators win
 * mostly by avoiding redundant data movement and setup around the
 * modular kernels — operands stay resident in the NTT domain across
 * chained operations. This example shows the CPU-side counterpart: a
 * sum of k negacyclic products sum_i a_i * b_i mod (x^n + 1, Q), first
 * the naive way (k full forward+inverse pipelines), then fused with
 * fmaBatch (accumulate in the transform domain, ONE inverse per
 * channel), then with the b_i held in Eval form throughout — the shape
 * of key-switching, where the key material never leaves the transform
 * domain. All three results are bit-identical.
 */
#include <cstdio>

#include "bench_util/protocol.h"
#include "engine/engine.h"
#include "rns/rns.h"

int
main()
{
    using namespace mqx;

    rns::RnsBasis basis(124, 20, 3);
    const size_t n = 2048, k = 8;
    engine::Engine engine;
    std::printf("dot product of %zu negacyclic products, n = %zu, "
                "%zu channels, backend %s, %zu thread(s)\n\n",
                k, n, basis.size(), backendName(engine.backend()).c_str(),
                engine.threads());

    std::vector<rns::RnsPolynomial> as, bs;
    for (size_t i = 0; i < k; ++i) {
        as.push_back(rns::randomPolynomial(basis, n, 0x50 + i));
        bs.push_back(rns::randomPolynomial(basis, n, 0x60 + i));
    }

    // Naive: k independent products, each paying 2 forward + 1 inverse
    // NTT per channel, then k - 1 coefficient-wise adds.
    uint64_t t0 = nowNs();
    rns::RnsPolynomial naive = engine.polymulNegacyclic(as[0], bs[0]);
    for (size_t i = 1; i < k; ++i)
        naive = engine.add(naive, engine.polymulNegacyclic(as[i], bs[i]));
    uint64_t t1 = nowNs();

    // Fused: accumulate in the transform domain, one inverse in total.
    std::vector<std::pair<const rns::RnsPolynomial*,
                          const rns::RnsPolynomial*>>
        products;
    for (size_t i = 0; i < k; ++i)
        products.push_back({&as[i], &bs[i]});
    uint64_t t2 = nowNs();
    rns::RnsPolynomial fused = engine.fmaBatch(products);
    uint64_t t3 = nowNs();

    // Key-resident: the b_i (the "key") live in Eval form permanently;
    // only the a_i are forwarded inside the batch.
    std::vector<rns::RnsPolynomial> key;
    for (size_t i = 0; i < k; ++i)
        key.push_back(engine.toEval(bs[i]));
    std::vector<std::pair<const rns::RnsPolynomial*,
                          const rns::RnsPolynomial*>>
        key_products;
    for (size_t i = 0; i < k; ++i)
        key_products.push_back({&as[i], &key[i]});
    uint64_t t4 = nowNs();
    rns::RnsPolynomial resident = engine.fmaBatch(key_products);
    uint64_t t5 = nowNs();

    bool identical = true;
    for (size_t c = 0; c < basis.size(); ++c) {
        identical = identical && fused.channel(c) == naive.channel(c) &&
                    resident.channel(c) == naive.channel(c);
    }

    std::printf("  naive (k polymuls + adds)  : %8.2f ms  (%zu inverse NTTs)\n",
                (t1 - t0) / 1e6, k * basis.size());
    std::printf("  fmaBatch (coeff operands)  : %8.2f ms  (%zu inverse NTTs, "
                "%.2fx)\n",
                (t3 - t2) / 1e6, basis.size(),
                static_cast<double>(t1 - t0) / static_cast<double>(t3 - t2));
    std::printf("  fmaBatch (eval-form key)   : %8.2f ms  (%zu inverse NTTs, "
                "%.2fx)\n",
                (t5 - t4) / 1e6, basis.size(),
                static_cast<double>(t1 - t0) / static_cast<double>(t5 - t4));
    std::printf("  bit-identical results      : %s\n",
                identical ? "yes" : "NO");
    return identical ? 0 : 1;
}
