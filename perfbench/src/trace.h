/**
 * @file
 * The benchmark's own span log. Each span is one call into a layer
 * (ntt, rns, engine, net) made from this benchmark's files, keyed by
 * the op id that caused it; a child names its parent span. Spans stay
 * in memory and are written as Chrome trace_event JSON when the run
 * ends. A layer's self time is its spans' duration minus the part of
 * each interval that its child spans cover.
 */
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class SpanLog
{
  public:
    static constexpr int32_t kNoParent = -1;

    explicit SpanLog(size_t reserve = 1 << 16) { spans_.reserve(reserve); }

    /** Record a finished span [start_ns, end_ns); returns its id. */
    int32_t add(const char* name, uint64_t op, int32_t parent,
                uint64_t start_ns, uint64_t end_ns);

    /** Durations (ns) of every span named @p name, in record order. */
    std::vector<uint64_t> durations(const std::string& name) const;

    /** Median duration (ns) of the spans named @p name; 0 if none. */
    double medianNs(const std::string& name) const;

    struct LayerTime
    {
        std::string name;
        uint64_t count = 0;
        uint64_t total_ns = 0;
        uint64_t self_ns = 0;
    };
    /** Per span name: count, total and self time. */
    std::vector<LayerTime> layerTimes() const;

    /** Write Chrome trace_event JSON; false if the file can't be written. */
    bool writeChromeTrace(const std::string& path) const;

  private:
    struct Span
    {
        const char* name;
        uint64_t op;
        int32_t parent;
        uint32_t tid;
        uint64_t start_ns;
        uint64_t end_ns;
    };

    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/**
 * End of a traced run: print each layer's self time per op and, when
 * @p path is non-empty, write the Chrome trace there.
 */
void finishTrace(const SpanLog& log, const std::string& path, uint64_t ops);

} // namespace perfbench
