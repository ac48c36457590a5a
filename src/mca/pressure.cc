/**
 * @file
 * Resource-pressure computation and rendering.
 */
#include "mca/pressure.h"

#include <algorithm>
#include <sstream>

#include "bench_util/tables.h"

namespace mqx {
namespace mca {

AnalysisResult
analyzeTrace(const std::vector<TracedInstr>& trace)
{
    AnalysisResult result;
    result.rows.reserve(trace.size());
    for (const auto& t : trace) {
        const InstrDesc& desc = instrDesc(t.mnemonic);
        AnalyzedInstr row;
        row.mnemonic = t.mnemonic;
        for (int u = 0; u < desc.uops; ++u) {
            // Least-loaded allowed port; ties break to the lowest index.
            int best = -1;
            for (int p = 0; p < kNumPorts; ++p) {
                if (!(desc.ports & (1u << p)))
                    continue;
                if (best < 0 || result.totals[static_cast<size_t>(p)] <
                                    result.totals[static_cast<size_t>(best)])
                    best = p;
            }
            if (best < 0)
                throw InvalidArgument("analyzeTrace: instruction with no ports");
            row.per_port[static_cast<size_t>(best)] += 1.0;
            result.totals[static_cast<size_t>(best)] += 1.0;
            ++result.total_uops;
        }
        if (desc.ports == kPort0)
            result.port0_only += desc.uops;
        result.latency_sum += desc.latency;
        result.rows.push_back(std::move(row));
    }
    result.rthroughput =
        *std::max_element(result.totals.begin(), result.totals.end());
    return result;
}

std::string
renderPressureTable(const std::string& title, const AnalysisResult& result)
{
    TextTable table(title + " - resource pressure by instruction:");
    std::vector<std::string> header;
    for (int p = 0; p < kNumPorts; ++p) {
        // Built by append rather than operator+ chaining: GCC 12's
        // -Wrestrict misfires on char*+string&& concatenation (PR105651).
        std::string label = "[";
        label += std::to_string(p);
        label += ']';
        header.push_back(std::move(label));
    }
    header.push_back("Instructions:");
    table.setHeader(std::move(header));
    auto cell = [](double v) {
        return v == 0.0 ? std::string("-") : formatFixed(v, 2);
    };
    for (const auto& row : result.rows) {
        std::vector<std::string> cells;
        for (int p = 0; p < kNumPorts; ++p)
            cells.push_back(cell(row.per_port[static_cast<size_t>(p)]));
        cells.push_back(row.mnemonic);
        table.addRow(std::move(cells));
    }
    table.addRule();
    std::vector<std::string> totals;
    for (int p = 0; p < kNumPorts; ++p)
        totals.push_back(cell(result.totals[static_cast<size_t>(p)]));
    totals.push_back("total port pressure");
    table.addRow(std::move(totals));
    return table.render();
}

std::string
summarizeAnalysis(const AnalysisResult& result)
{
    std::ostringstream out;
    out << "instructions: " << result.rows.size()
        << "  uops: " << result.total_uops
        << "  bottleneck rthroughput: " << formatFixed(result.rthroughput, 2)
        << " cyc  latency-chain bound: " << formatFixed(result.latency_sum, 0)
        << " cyc";
    return out.str();
}

} // namespace mca
} // namespace mqx
