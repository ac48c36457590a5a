/**
 * @file
 * Resource-pressure analysis (the Listing-4 view).
 *
 * Given an instruction trace and the simplified Sunny Cove port model
 * (Fig. 3), distribute each instruction's uops to their allowed ports
 * with a least-loaded greedy policy (the same first-order behaviour as
 * llvm-mca's resource-pressure view) and report per-port pressure, the
 * bottleneck reciprocal throughput, and a rendered pressure matrix.
 */
#pragma once

#include <array>
#include <string>
#include <vector>

#include "mca/isa_table.h"
#include "mca/trace_isa.h"

namespace mqx {
namespace mca {

/** Per-instruction port assignment. */
struct AnalyzedInstr
{
    std::string mnemonic;
    std::array<double, kNumPorts> per_port{}; ///< uops issued per port
};

/** Whole-trace analysis. */
struct AnalysisResult
{
    std::vector<AnalyzedInstr> rows;
    std::array<double, kNumPorts> totals{}; ///< per-port uop totals
    int total_uops = 0;
    int port0_only = 0;       ///< uops that can issue on port 0 alone
    double rthroughput = 0.0; ///< bottleneck port pressure (cycles/iter)
    double latency_sum = 0.0; ///< sum of instruction latencies (chain bound)
};

/** Analyze a trace under the port model. */
AnalysisResult analyzeTrace(const std::vector<TracedInstr>& trace);

/**
 * Render a Listing-4-style resource-pressure matrix:
 * one row per instruction, one column per port.
 */
std::string renderPressureTable(const std::string& title,
                                const AnalysisResult& result);

/** One-line summary: uops, bottleneck throughput, pressure by port. */
std::string summarizeAnalysis(const AnalysisResult& result);

} // namespace mca
} // namespace mqx
