/**
 * @file
 * Open-loop load generator for the polymul service (ISSUE 10
 * satellite).
 *
 * Boots an in-process PolymulServer on a loopback port, estimates its
 * closed-loop saturation throughput, then drives OPEN-LOOP offered
 * loads at 0.5x / 1.0x / 2.0x saturation: senders fire requests on a
 * fixed schedule whether or not responses have come back, which is
 * what exposes tail latency and shedding behaviour (a closed-loop
 * client self-throttles and can never overload the queue). Reports
 * achieved throughput, shed rate, and p50/p95/p99 response latency per
 * offered load.
 *
 * Usage: bench_service [--json <path>]
 *   --json also emits the measurements as JSON (committed as
 *   BENCH_service.json). Argless runs just print the table.
 */
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "net/client.h"
#include "net/server.h"
#include "net/socket.h"
#include "net/wire.h"

namespace mqx {
namespace bench {
namespace {

constexpr int kConnections = 4;
constexpr uint64_t kRunNs = 600 * 1000000ull; // per offered load
constexpr size_t kN = 1024;
constexpr int kChannels = 4;
constexpr net::BasisSpec kSpec{40, 12, kChannels};

struct LoadPoint {
    double offered_rps = 0;
    double achieved_rps = 0;
    double shed_rate = 0;
    double p50_us = 0, p95_us = 0, p99_us = 0;
    uint64_t sent = 0, ok = 0, shed = 0, other = 0;
};

double
percentileUs(std::vector<uint64_t>& ns, double p)
{
    if (ns.empty())
        return 0;
    std::sort(ns.begin(), ns.end());
    size_t idx = static_cast<size_t>(p * static_cast<double>(ns.size() - 1));
    return static_cast<double>(ns[idx]) / 1000.0;
}

/** One open-loop connection: sender on a schedule, receiver tallying. */
struct Connection {
    net::Socket sock;
    std::thread sender, receiver;
    // send timestamp per sequence number, preallocated so the receiver
    // reads without locks (sender writes strictly before the response
    // can exist).
    std::vector<uint64_t> send_ns;
    std::vector<uint64_t> latencies_ns;
    uint64_t sent = 0, ok = 0, shed = 0, other = 0;
    std::atomic<bool> sender_done{false};
};

/**
 * Drive @p offered_rps total across kConnections for kRunNs. The frame
 * template has its request-id field patched per send (body offset 4,
 * after the 8-byte header).
 */
LoadPoint
runOpenLoop(uint16_t port, const std::vector<uint8_t>& frame_template,
            double offered_rps)
{
    LoadPoint point;
    point.offered_rps = offered_rps;
    const double per_conn = offered_rps / kConnections;
    const uint64_t gap_ns =
        per_conn > 0 ? static_cast<uint64_t>(1e9 / per_conn) : kRunNs;
    const size_t max_seq =
        static_cast<size_t>(kRunNs / (gap_ns ? gap_ns : 1)) + 16;

    std::vector<std::unique_ptr<Connection>> conns;
    for (int c = 0; c < kConnections; ++c) {
        auto conn = std::make_unique<Connection>();
        robust::Status s = net::connectLoopback(port, 2000, conn->sock);
        if (!s.ok()) {
            std::fprintf(stderr, "connect failed: %s\n",
                         s.toString().c_str());
            return point;
        }
        conn->send_ns.assign(max_seq + 1, 0);
        conns.push_back(std::move(conn));
    }

    const uint64_t start_ns = nowNs();
    for (int c = 0; c < kConnections; ++c) {
        Connection* conn = conns[static_cast<size_t>(c)].get();
        const uint64_t conn_base =
            (static_cast<uint64_t>(c) + 1) << 32; // ids are never 0
        conn->sender = std::thread([conn, conn_base, gap_ns, start_ns,
                                    frame_template] {
            std::vector<uint8_t> frame = frame_template;
            uint64_t seq = 0;
            for (;;) {
                const uint64_t due = start_ns + seq * gap_ns;
                uint64_t now = nowNs();
                if (now >= start_ns + kRunNs)
                    break;
                if (now < due) {
                    std::this_thread::sleep_for(
                        std::chrono::nanoseconds(due - now));
                    now = nowNs();
                    if (now >= start_ns + kRunNs)
                        break;
                }
                if (seq >= conn->send_ns.size())
                    break;
                const uint64_t id = conn_base | seq;
                std::memcpy(frame.data() + net::kHeaderBytes + 4, &id, 8);
                conn->send_ns[seq] = nowNs();
                robust::Status s =
                    conn->sock.writeAll(frame.data(), frame.size(), 2000);
                if (!s.ok())
                    break;
                ++conn->sent;
                ++seq;
            }
            conn->sender_done.store(true, std::memory_order_release);
        });
        conn->receiver = std::thread([conn] {
            net::FrameReader reader;
            uint8_t buf[16384];
            std::vector<uint8_t> body;
            // Drain until the sender is done AND no response has
            // arrived for a grace period (covers queued work).
            uint64_t quiet_since = 0;
            for (;;) {
                net::IoResult io = conn->sock.readSome(buf, sizeof(buf), 50);
                if (!io.status.ok() || io.eof)
                    break;
                const uint64_t now = nowNs();
                if (io.timed_out) {
                    if (conn->sender_done.load(std::memory_order_acquire)) {
                        if (quiet_since == 0)
                            quiet_since = now;
                        else if (now - quiet_since > 500 * 1000000ull)
                            break;
                    }
                    continue;
                }
                quiet_since = 0;
                reader.feed(buf, io.bytes);
                while (reader.next(body) ==
                       net::FrameReader::Next::Frame) {
                    net::Response resp;
                    if (!net::decodeResponse(body.data(), body.size(), resp)
                             .ok())
                        continue;
                    const uint64_t seq = resp.request_id & 0xffffffffull;
                    if (resp.code == robust::StatusCode::Ok) {
                        ++conn->ok;
                        if (seq < conn->send_ns.size() &&
                            conn->send_ns[seq] != 0)
                            conn->latencies_ns.push_back(
                                nowNs() - conn->send_ns[seq]);
                    } else if (resp.code ==
                               robust::StatusCode::ResourceExhausted) {
                        ++conn->shed;
                    } else {
                        ++conn->other;
                    }
                }
            }
        });
    }

    std::vector<uint64_t> all_latencies;
    for (auto& conn : conns) {
        conn->sender.join();
        conn->receiver.join();
        conn->sock.closeNow();
        point.sent += conn->sent;
        point.ok += conn->ok;
        point.shed += conn->shed;
        point.other += conn->other;
        all_latencies.insert(all_latencies.end(),
                             conn->latencies_ns.begin(),
                             conn->latencies_ns.end());
    }
    const double run_s = static_cast<double>(kRunNs) / 1e9;
    point.achieved_rps = static_cast<double>(point.ok) / run_s;
    point.shed_rate =
        point.sent ? static_cast<double>(point.shed) /
                         static_cast<double>(point.sent)
                   : 0;
    point.p50_us = percentileUs(all_latencies, 0.50);
    point.p95_us = percentileUs(all_latencies, 0.95);
    point.p99_us = percentileUs(all_latencies, 0.99);
    return point;
}

/** Closed-loop saturation estimate: kConnections clients in lockstep. */
double
estimateSaturationRps(uint16_t port, const rns::RnsPolynomial& a,
                      const rns::RnsPolynomial& b)
{
    std::atomic<uint64_t> served{0};
    const uint64_t budget_ns = 400 * 1000000ull;
    const uint64_t start = nowNs();
    std::vector<std::thread> threads;
    for (int c = 0; c < kConnections; ++c) {
        threads.emplace_back([&, c] {
            net::ClientOptions opt;
            opt.port = port;
            opt.jitter_seed = static_cast<uint64_t>(c) + 1;
            net::Client client(opt);
            uint64_t id = (static_cast<uint64_t>(c) + 1) << 48;
            while (nowNs() - start < budget_ns) {
                net::Request req =
                    net::Client::makePolymul(a, b, kSpec, ++id);
                net::Response resp;
                if (client.call(req, resp).ok() &&
                    resp.code == robust::StatusCode::Ok)
                    served.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }
    for (auto& t : threads)
        t.join();
    const double secs = static_cast<double>(nowNs() - start) / 1e9;
    return static_cast<double>(served.load()) / secs;
}

int
run(const char* json_path)
{
    printHostHeader("Service layer: open-loop tail latency & shedding");

    net::ServerOptions options;
    options.queue_depth = 64;
    options.coalesce_window_us = 200;
    options.engine.threads = engine::defaultThreadCount();
    options.engine.max_workspaces = 16;
    net::PolymulServer server(options);
    robust::Status s = server.start();
    if (!s.ok()) {
        std::fprintf(stderr, "server start failed: %s\n",
                     s.toString().c_str());
        return 1;
    }

    rns::RnsBasis basis(kSpec.bits, static_cast<int>(kSpec.two_adicity),
                        kChannels);
    auto a = rns::randomPolynomial(basis, kN, 0xace1);
    auto b = rns::randomPolynomial(basis, kN, 0xace2);
    const std::vector<uint8_t> frame =
        net::encodeRequestFrame(net::Client::makePolymul(a, b, kSpec, 1));

    std::printf("workload : polymul, n = %zu, %d x %d-bit channels\n", kN,
                kChannels, kSpec.bits);
    std::printf("frame    : %zu bytes; %d connections; queue depth %zu\n\n",
                frame.size(), kConnections, options.queue_depth);

    std::fprintf(stderr, "  estimating closed-loop saturation...\n");
    const double saturation = estimateSaturationRps(server.port(), a, b);
    std::printf("saturation (closed-loop): %.0f req/s\n\n", saturation);

    TextTable table("open-loop offered load sweep");
    table.setHeader({"offered rps", "achieved rps", "shed rate", "p50 us",
                     "p95 us", "p99 us"});
    std::vector<LoadPoint> points;
    for (double factor : {0.5, 1.0, 2.0}) {
        const double offered = saturation * factor;
        std::fprintf(stderr, "  offered %.0f rps (%.1fx saturation)...\n",
                     offered, factor);
        LoadPoint p = runOpenLoop(server.port(), frame, offered);
        points.push_back(p);
        table.addRow({formatFixed(p.offered_rps, 0),
                      formatFixed(p.achieved_rps, 0),
                      formatFixed(p.shed_rate * 100, 1) + "%",
                      formatFixed(p.p50_us, 0), formatFixed(p.p95_us, 0),
                      formatFixed(p.p99_us, 0)});
    }
    table.print();
    std::printf("note: at 2x saturation a bounded queue must shed — the\n"
                "shed rate is the backpressure working, and p99 stays\n"
                "bounded by queue depth x service time instead of growing\n"
                "without limit.\n");

    net::DrainReport report = server.stop();
    std::printf("drain    : clean=%s served=%llu shed=%llu\n",
                report.clean ? "true" : "false",
                static_cast<unsigned long long>(report.served),
                static_cast<unsigned long long>(report.shed));
    if (!report.clean)
        return 1;

    if (json_path) {
        std::FILE* f = std::fopen(json_path, "w");
        if (!f) {
            std::fprintf(stderr, "cannot write %s\n", json_path);
            return 1;
        }
        std::fprintf(f, "{\n  \"scenario\": \"service_open_loop\",\n");
        // Host and server metadata: what produced these numbers, so a
        // stale or foreign-host file is visible in the diff.
        std::fprintf(f, "  \"cpu\": \"%s\",\n",
                     jsonEscape(hostCpuFeatures().brand).c_str());
        std::fprintf(f, "  \"backend\": \"%s\",\n",
                     backendName(server.engine().backend()).c_str());
        std::fprintf(f, "  \"avx512_shoup_kernel\": \"%s\",\n",
                     avx512Kernel());
        std::fprintf(f, "  \"engine_threads\": %zu,\n",
                     server.engine().threads());
        std::fprintf(f, "  \"dispatchers\": %zu,\n", options.dispatchers);
        std::fprintf(f, "  \"coalesce_window_us\": %llu,\n",
                     static_cast<unsigned long long>(
                         options.coalesce_window_us));
        std::fprintf(f, "  \"n\": %zu,\n  \"channels\": %d,\n", kN,
                     kChannels);
        std::fprintf(f, "  \"connections\": %d,\n", kConnections);
        std::fprintf(f, "  \"queue_depth\": %zu,\n", options.queue_depth);
        std::fprintf(f, "  \"saturation_rps\": %.0f,\n", saturation);
        std::fprintf(f, "  \"loads\": [\n");
        for (size_t i = 0; i < points.size(); ++i) {
            const LoadPoint& p = points[i];
            std::fprintf(f,
                         "    {\"offered_rps\": %.0f, \"achieved_rps\": "
                         "%.0f, \"shed_rate\": %.4f,\n     \"p50_us\": "
                         "%.0f, \"p95_us\": %.0f, \"p99_us\": %.0f}%s\n",
                         p.offered_rps, p.achieved_rps, p.shed_rate,
                         p.p50_us, p.p95_us, p.p99_us,
                         i + 1 < points.size() ? "," : "");
        }
        std::fprintf(f, "  ],\n");
        std::fprintf(f, "  \"shed_at_2x\": %s\n",
                     points.back().shed > 0 ? "true" : "false");
        std::fprintf(f, "}\n");
        std::fclose(f);
        std::printf("wrote %s\n", json_path);
    }
    return 0;
}

} // namespace
} // namespace bench
} // namespace mqx

int
main(int argc, char** argv)
{
    const char* json_path = nullptr;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
            json_path = argv[++i];
        } else {
            std::fprintf(stderr, "usage: bench_service [--json <path>]\n");
            return 2;
        }
    }
    return mqx::bench::run(json_path);
}
