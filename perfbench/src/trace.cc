#include "trace.h"

#include "common.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <thread>
#include <utility>

namespace perfbench {

namespace {

uint32_t
threadLane()
{
    return static_cast<uint32_t>(
        std::hash<std::thread::id>{}(std::this_thread::get_id()) % 100000);
}

} // namespace

int32_t
SpanLog::add(const char* name, uint64_t op, int32_t parent,
             uint64_t start_ns, uint64_t end_ns)
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(Span{name, op, parent, threadLane(), start_ns,
                          std::max(start_ns, end_ns)});
    return static_cast<int32_t>(spans_.size() - 1);
}

std::vector<uint64_t>
SpanLog::durations(const std::string& name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<uint64_t> out;
    for (const Span& s : spans_)
        if (name == s.name)
            out.push_back(s.end_ns - s.start_ns);
    return out;
}

double
SpanLog::medianNs(const std::string& name) const
{
    return median(durations(name));
}

std::vector<SpanLog::LayerTime>
SpanLog::layerTimes() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    // Child intervals of each span, clipped to the parent.
    std::vector<std::vector<std::pair<uint64_t, uint64_t>>> children(
        spans_.size());
    for (const Span& s : spans_) {
        if (s.parent < 0)
            continue;
        const Span& p = spans_[static_cast<size_t>(s.parent)];
        const uint64_t lo = std::max(s.start_ns, p.start_ns);
        const uint64_t hi = std::min(s.end_ns, p.end_ns);
        if (lo < hi)
            children[static_cast<size_t>(s.parent)].emplace_back(lo, hi);
    }
    std::map<std::string, LayerTime> by_name;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        auto& kids = children[i];
        std::sort(kids.begin(), kids.end());
        uint64_t covered = 0, reach = s.start_ns;
        for (const auto& [lo, hi] : kids) {
            const uint64_t from = std::max(lo, reach);
            if (hi > from)
                covered += hi - from;
            reach = std::max(reach, hi);
        }
        LayerTime& t = by_name[s.name];
        t.name = s.name;
        ++t.count;
        t.total_ns += s.end_ns - s.start_ns;
        t.self_ns += (s.end_ns - s.start_ns) - covered;
    }
    std::vector<LayerTime> out;
    for (auto& [name, t] : by_name)
        out.push_back(t);
    return out;
}

bool
SpanLog::writeChromeTrace(const std::string& path) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const uint64_t t0 = spans_.empty() ? 0 : std::min_element(
        spans_.begin(), spans_.end(), [](const Span& a, const Span& b) {
            return a.start_ns < b.start_ns;
        })->start_ns;
    std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        std::fprintf(f,
                     "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                     "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                     "\"op\":%llu,\"span\":%zu,\"parent\":%d}}",
                     i ? "," : "", s.name, s.tid,
                     static_cast<double>(s.start_ns - t0) / 1e3,
                     static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                     static_cast<unsigned long long>(s.op), i, s.parent);
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

void
finishTrace(const SpanLog& log, const std::string& path, uint64_t ops)
{
    std::printf("layer self time per traced op (span minus covered "
                "children):\n");
    for (const auto& t : log.layerTimes())
        std::printf("  %-22s %8llu spans %12.1f us total %12.1f us self\n",
                    t.name.c_str(), static_cast<unsigned long long>(t.count),
                    static_cast<double>(t.total_ns) / 1e3 /
                        static_cast<double>(ops ? ops : 1),
                    static_cast<double>(t.self_ns) / 1e3 /
                        static_cast<double>(ops ? ops : 1));
    if (!path.empty() && !log.writeChromeTrace(path))
        std::fprintf(stderr, "cannot write trace %s\n", path.c_str());
}

} // namespace perfbench
