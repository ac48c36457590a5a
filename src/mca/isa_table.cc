/**
 * @file
 * The instruction table for the simplified Sunny Cove model.
 */
#include "mca/isa_table.h"

#include "core/config.h"

namespace mqx {
namespace mca {

const std::vector<InstrDesc>&
instrTable()
{
    // Latencies/ports: simplified Ice Lake (Sunny Cove) values for
    // 512-bit operations. vpmullq is the notoriously slow 64-bit
    // multiply-low; vpmuludq is the fast 32x32 widening multiply.
    static const std::vector<InstrDesc> table = {
        // mnemonic        ports              uops latency proposed
        {"vpaddq",         kPort0 | kPort5,   1,   1,  false},
        {"vpsubq",         kPort0 | kPort5,   1,   1,  false},
        {"vpaddq{k}",      kPort0 | kPort5,   1,   1,  false},
        {"vpsubq{k}",      kPort0 | kPort5,   1,   1,  false},
        {"vpcmpuq",        kPort5,            1,   3,  false},
        {"vpcmpeqq",       kPort5,            1,   3,  false},
        {"vpmullq",        kPort0,            3,   15, false},
        {"vpmuludq",       kPort0,            1,   5,  false},
        {"vpsrlq",         kPort0,            1,   1,  false},
        {"vpsllq",         kPort0,            1,   1,  false},
        {"vporq",          kPort0 | kPort5,   1,   1,  false},
        {"vpandq",         kPort0 | kPort5,   1,   1,  false},
        {"vpxorq",         kPort0 | kPort5,   1,   1,  false},
        {"vpblendmq",      kPort0 | kPort5,   1,   1,  false},
        {"vmovdqa64",      kPort0 | kPort1 | kPort5, 1, 1, false},
        {"vpbroadcastq",   kPort5,            1,   3,  false},
        {"vpunpcklqdq",    kPort5,            1,   1,  false},
        {"vpunpckhqdq",    kPort5,            1,   1,  false},
        {"vpermt2q",       kPort5,            1,   3,  false},
        {"korb",           kPort0,            1,   1,  false},
        {"kandb",          kPort0,            1,   1,  false},
        {"knotb",          kPort0,            1,   1,  false},
        {"vmovdqu64.load", kPort2 | kPort3,   1,   5,  false},
        {"vmovdqu64.store", kPort4,           1,   1,  false},
        {"vpternlogq",     kPort0 | kPort5,   1,   1,  false},
        // IFMA 52-bit multiply-add (Ice Lake server: 512-bit form on
        // port 0 only, the same FMA unit as vpmuludq).
        {"vpmadd52luq",    kPort0,            1,   4,  false},
        {"vpmadd52huq",    kPort0,            1,   4,  false},
        // The IFMA kernels' limb splits and joins: VBMI2 funnel shifts
        // and rotates share port 0 with the shifts; vpshufb (byte
        // shuffle within 128-bit lanes) runs on port 5.
        {"vprolq",         kPort0,            1,   1,  false},
        {"vpshrdq",        kPort0,            1,   1,  false},
        {"vpshrdvq",       kPort0,            1,   1,  false},
        {"vpshufb",        kPort5,            1,   1,  false},
        // MQX (proposed): same ports as the Table-3 proxies.
        {"vpmulq",         kPort0,            3,   15, true}, // ~ vpmullq
        {"vpmulhq",        kPort0,            3,   15, true}, // ~ vpmullq
        {"vpadcq",         kPort0 | kPort5,   1,   1,  true}, // ~ vpaddq{k}
        {"vpsbbq",         kPort0 | kPort5,   1,   1,  true}, // ~ vpsubq{k}
        {"vpadcq{p}",      kPort0 | kPort5,   1,   1,  true},
        {"vpsbbq{p}",      kPort0 | kPort5,   1,   1,  true},
    };
    return table;
}

const InstrDesc&
instrDesc(const std::string& mnemonic)
{
    for (const auto& d : instrTable()) {
        if (d.mnemonic == mnemonic)
            return d;
    }
    throw InvalidArgument("mca::instrDesc: unknown mnemonic " + mnemonic);
}

} // namespace mca
} // namespace mqx
