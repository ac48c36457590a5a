/**
 * @file
 * svc_open_1k: an open loop of polymul requests at a fixed rate into an
 * in-process net::PolymulServer over one loopback connection. One
 * sender thread writes pre-encoded frames on schedule; one receiver
 * thread decodes and checks every response. Each latency runs from the
 * request's due time, so a stalled generator or server shows as
 * latency on every request it delays. Why this shape and rate:
 * perfbench/README.md.
 */
#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "common.h"
#include "engine/engine.h"
#include "ladder.h"
#include "net/client.h"
#include "net/server.h"
#include "net/socket.h"
#include "net/wire.h"
#include "telemetry/telemetry.h"
#include "trace.h"

namespace perfbench {

namespace engine = mqx::engine;
namespace net = mqx::net;
namespace rns = mqx::rns;
using mqx::robust::StatusCode;

namespace {

constexpr size_t kN = 1024;
constexpr net::BasisSpec kSpec{40, 12, 4};
constexpr double kRateRps = 150;
constexpr size_t kPairs = 16;
constexpr size_t kWarmupRequests = 50;
constexpr int kSetups = 5;
constexpr int kIoTimeoutMs = 5000;
/** The sender spins (instead of sleeping) this close to a due time. */
constexpr uint64_t kSpinNs = 500000;
/** Byte offset of request_id inside a request frame. */
constexpr size_t kIdOffset = net::kHeaderBytes + 4;

/** Every ServerOptions field, set here (never from the environment). */
net::ServerOptions
serverOptions(mqx::Backend backend)
{
    net::ServerOptions o;
    o.port = 0;
    o.queue_depth = 64;
    o.max_sessions = 4;
    o.coalesce_window_us = 200;
    o.idle_timeout_ms = 5000;
    o.dispatchers = 1;
    o.engine = engine::EngineOptions{backend, 2, {}, 16};
    return o;
}

struct SvcSetup
{
    std::unique_ptr<rns::RnsBasis> basis;
    std::vector<rns::RnsPolynomial> operands;
    std::vector<rns::RnsPolynomial> expect;
    std::vector<std::vector<uint8_t>> frames;
    std::unique_ptr<engine::Engine> scalar_ref;
    std::unique_ptr<net::PolymulServer> server;
    net::Socket sock;
    uint64_t warm_failures = 0;
};

bool
responseMatches(const net::Response& resp, const rns::RnsPolynomial& expect)
{
    if (resp.code != StatusCode::Ok || resp.n != kN ||
        !(resp.basis == kSpec) || resp.channels.size() != kSpec.channels)
        return false;
    for (size_t c = 0; c < resp.channels.size(); ++c)
        if (resp.channels[c] != expect.channel(c))
            return false;
    return true;
}

/** Stamp @p id into a pre-encoded request frame and write it. */
bool
sendFrame(std::vector<uint8_t>& frame, uint64_t id, net::Socket& sock)
{
    std::memcpy(frame.data() + kIdOffset, &id, sizeof(id));
    return sock.writeAll(frame.data(), frame.size(), kIoTimeoutMs).ok();
}

/** Block until one response frame arrives; false on error/timeout. */
bool
readResponse(net::Socket& sock, net::FrameReader& reader,
             net::Response& resp)
{
    std::vector<uint8_t> body;
    uint8_t buf[1 << 16];
    for (;;) {
        if (reader.next(body) == net::FrameReader::Next::Frame)
            return net::decodeResponse(body.data(), body.size(), resp).ok();
        net::IoResult io = sock.readSome(buf, sizeof(buf), kIoTimeoutMs);
        if (!io.status.ok() || io.eof || io.timed_out)
            return false;
        reader.feed(buf, io.bytes);
    }
}

std::unique_ptr<SvcSetup>
setUp(mqx::Backend backend, uint64_t seed)
{
    auto s = std::make_unique<SvcSetup>();
    s->basis = std::make_unique<rns::RnsBasis>(
        kSpec.bits, kSpec.two_adicity, static_cast<int>(kSpec.channels));
    s->operands.reserve(2 * kPairs);
    for (size_t i = 0; i < 2 * kPairs; ++i)
        s->operands.push_back(
            rns::randomPolynomial(*s->basis, kN, mixSeed(seed, i)));
    s->scalar_ref = std::make_unique<engine::Engine>(
        engine::EngineOptions{mqx::Backend::Scalar, 1, {}, 0});
    for (size_t p = 0; p < kPairs; ++p) {
        const auto& a = s->operands[2 * p];
        const auto& b = s->operands[2 * p + 1];
        s->expect.push_back(s->scalar_ref->polymulNegacyclic(a, b));
        s->frames.push_back(net::encodeRequestFrame(
            net::Client::makePolymul(a, b, kSpec, 1)));
    }

    s->server = std::make_unique<net::PolymulServer>(serverOptions(backend));
    mqx::robust::Status st = s->server->start();
    if (st.ok())
        st = net::connectLoopback(s->server->port(), kIoTimeoutMs, s->sock);
    if (!st.ok()) {
        std::fprintf(stderr, "server start/connect failed: %s\n",
                     st.toString().c_str());
        s->warm_failures = kWarmupRequests;
        return s;
    }
    net::FrameReader reader;
    for (size_t i = 0; i < kWarmupRequests; ++i) {
        net::Response resp;
        if (!sendFrame(s->frames[i % kPairs], i + 1, s->sock) ||
            !readResponse(s->sock, reader, resp) ||
            resp.request_id != i + 1 ||
            !responseMatches(resp, s->expect[i % kPairs]))
            ++s->warm_failures;
    }
    return s;
}

struct OpenLoopResult
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    uint64_t mismatches = 0;
    /** From due time to decoded response, OK requests only. */
    std::vector<uint64_t> latency_ns;
    /** Send start minus due time, every request sent. */
    std::vector<uint64_t> late_ns;
    /** First due time, and when each OK response was decoded. */
    uint64_t start_ns = 0;
    std::vector<uint64_t> done_ns;
    uint64_t cpu_ns = 0;
};

/**
 * Offer kRateRps for @p seconds on the set-up connection. Request ids
 * are @p id_base + sequence number. With @p log, each request becomes
 * a `net.request` span (due → decoded) with `loadgen.late`,
 * `net.write` and `net.decode` children.
 */
OpenLoopResult
openLoop(SvcSetup& s, double seconds, uint64_t id_base, SpanLog* log)
{
    const size_t count = static_cast<size_t>(seconds * kRateRps);
    const uint64_t gap_ns = static_cast<uint64_t>(1e9 / kRateRps);
    std::vector<uint64_t> send0(count, 0), send1(count, 0);
    std::vector<uint64_t> frame_ns(count, 0), done_ns(count, 0);
    std::vector<uint8_t> ok(count, 0), answered_ok(count, 0);
    std::atomic<size_t> sent{0};
    std::atomic<bool> sender_done{false};
    OpenLoopResult r;
    const uint64_t cpu0 = cpuNs();
    const uint64_t start = nowNs() + 1000000;

    std::thread sender([&] {
        for (size_t seq = 0; seq < count; ++seq) {
            // Sleep to just short of the due time, then spin: a sleeping
            // thread's wake-up jitter would otherwise land in every
            // latency measured from the due time.
            const uint64_t due = start + seq * gap_ns;
            const uint64_t now = nowNs();
            if (now + kSpinNs < due)
                std::this_thread::sleep_for(
                    std::chrono::nanoseconds(due - kSpinNs - now));
            while (nowNs() < due) {
            }
            send0[seq] = nowNs();
            const bool written =
                sendFrame(s.frames[seq % kPairs], id_base + seq, s.sock);
            send1[seq] = nowNs();
            if (!written)
                break;
            sent.store(seq + 1, std::memory_order_release);
        }
        sender_done.store(true, std::memory_order_release);
    });
    std::thread receiver([&] {
        net::FrameReader reader;
        std::vector<uint8_t> body;
        std::vector<uint8_t> buf(1 << 16);
        size_t received = 0;
        uint64_t quiet_since = 0;
        for (;;) {
            if (sender_done.load(std::memory_order_acquire) &&
                received >= sent.load(std::memory_order_acquire))
                break;
            net::IoResult io = s.sock.readSome(buf.data(), buf.size(), 50);
            if (!io.status.ok() || io.eof)
                break;
            if (io.timed_out) {
                // Give up on missing responses a while after the last send.
                if (!sender_done.load(std::memory_order_acquire))
                    continue;
                if (!quiet_since)
                    quiet_since = nowNs();
                else if (nowNs() - quiet_since > 2000000000ull)
                    break;
                continue;
            }
            quiet_since = 0;
            reader.feed(buf.data(), io.bytes);
            while (reader.next(body) == net::FrameReader::Next::Frame) {
                const uint64_t t_frame = nowNs();
                net::Response resp;
                const bool decoded =
                    net::decodeResponse(body.data(), body.size(), resp).ok();
                const uint64_t t_done = nowNs();
                const uint64_t seq = resp.request_id - id_base;
                ++received;
                if (!decoded || resp.request_id < id_base || seq >= count)
                    continue;
                frame_ns[seq] = t_frame;
                done_ns[seq] = t_done;
                answered_ok[seq] = resp.code == StatusCode::Ok;
                ok[seq] = responseMatches(resp, s.expect[seq % kPairs]);
            }
        }
    });
    sender.join();
    receiver.join();
    r.cpu_ns = cpuNs() - cpu0;
    r.start_ns = start;

    const size_t total = sent.load();
    for (size_t seq = 0; seq < total; ++seq) {
        const uint64_t due = start + seq * gap_ns;
        ++r.attempted;
        r.late_ns.push_back(send0[seq] > due ? send0[seq] - due : 0);
        if (!ok[seq]) {
            // Shed or errored requests fail; an OK with wrong data also
            // mismatches.
            ++r.failed;
            if (answered_ok[seq])
                ++r.mismatches;
            continue;
        }
        r.latency_ns.push_back(done_ns[seq] - due);
        r.done_ns.push_back(done_ns[seq]);
        if (log) {
            const uint64_t op = id_base + seq;
            const int32_t req = log->add("net.request", op,
                                         SpanLog::kNoParent, due,
                                         done_ns[seq]);
            log->add("loadgen.late", op, req, due, send0[seq]);
            log->add("net.write", op, req, send0[seq], send1[seq]);
            log->add("net.decode", op, req, frame_ns[seq], done_ns[seq]);
        }
    }
    // Requests never sent (a failed write) count against the run too.
    r.attempted += count - total;
    r.failed += count - total;
    return r;
}

void
absorb(Report& report, const OpenLoopResult& r)
{
    report.attempted += r.attempted;
    report.failed += r.failed;
    report.mismatches += r.mismatches;
}

/** A drain that is not clean or leaves leases counts as a failure. */
net::DrainReport
stopServer(SvcSetup& s, Report& report)
{
    s.sock.closeNow();
    net::DrainReport d = s.server->stop();
    if (!d.clean || d.leased_at_drain != 0) {
        std::fprintf(stderr, "server drain not clean: leased_at_drain=%zu\n",
                     d.leased_at_drain);
        ++report.failed;
    }
    return d;
}

} // namespace

int
runSvcOpen1k(const Options& opt, Report& report)
{
    mqx::telemetry::setEnabled(false);
    const mqx::Backend backend = hostBestBackend();
    std::unique_ptr<SvcSetup> s;
    for (int i = 0; i < kSetups; ++i) {
        if (s)
            stopServer(*s, report);
        s.reset();
        const uint64_t t0 = nowNs();
        s = setUp(backend, opt.seed);
        report.setup_s.push_back(static_cast<double>(nowNs() - t0) / 1e9);
        report.attempted += kWarmupRequests;
        report.failed += s->warm_failures;
    }

    const net::ServerOptions so = serverOptions(backend);
    report.config = {
        {"backend", jsonString(mqx::backendName(backend))},
        {"engine_threads", jsonNumber(static_cast<double>(so.engine.threads))},
        {"engine_max_workspaces",
         jsonNumber(static_cast<double>(so.engine.max_workspaces))},
        {"server_dispatchers", jsonNumber(static_cast<double>(so.dispatchers))},
        {"server_queue_depth", jsonNumber(static_cast<double>(so.queue_depth))},
        {"server_max_sessions",
         jsonNumber(static_cast<double>(so.max_sessions))},
        {"server_coalesce_window_us",
         jsonNumber(static_cast<double>(so.coalesce_window_us))},
        {"server_idle_timeout_ms",
         jsonNumber(static_cast<double>(so.idle_timeout_ms))},
        {"n", jsonNumber(kN)},
        {"channels", jsonNumber(kSpec.channels)},
        {"prime_bits", jsonNumber(kSpec.bits)},
        {"operand_pairs", jsonNumber(kPairs)},
        {"loop", jsonString("open, fixed rate, latency from due time")},
        {"rate_rps", jsonNumber(kRateRps)},
        {"connections", jsonNumber(1)},
        {"generator_threads", jsonNumber(2)},
        {"setups", jsonNumber(kSetups)},
    };

    if (!opt.trace) {
        OpenLoopResult r = openLoop(*s, opt.seconds, 1ull << 32, nullptr);
        absorb(report, r);
        report.start_ns = r.start_ns;
        report.latency_ns = r.latency_ns;
        report.done_ns = r.done_ns;
        stopServer(*s, report);
        return 0;
    }

    // Traced run: untraced open loop (baseline and counters), traced
    // open loop, then a closed-loop ladder at the same shape: Engine op
    // on the server's own engine, one Client call, the layer probe.
    net::PolymulServer& server = *s->server;
    engine::Engine& eng = server.engine();
    const auto stats0 = server.stats();
    const EngineCounters before = EngineCounters::read(eng);
    OpenLoopResult base = openLoop(*s, opt.seconds * 0.4, 1ull << 32, nullptr);
    absorb(report, base);
    const EngineCounters after = EngineCounters::read(eng);
    const double base_ops = static_cast<double>(base.attempted);

    SpanLog log;
    mqx::telemetry::setEnabled(true);
    OpenLoopResult traced = openLoop(*s, opt.seconds * 0.4, 2ull << 32, &log);
    absorb(report, traced);
    const auto stats1 = server.stats();

    const rns::RnsPolynomial& a0 = s->operands[0];
    const rns::RnsPolynomial& b0 = s->operands[1];
    LayerProbe probe(*s->basis, kN, backend, eng.planCache(), {{&a0, &b0}},
                     kSpec, *s->scalar_ref);
    net::ClientOptions co;
    co.port = server.port();
    co.io_timeout_ms = kIoTimeoutMs;
    co.jitter_seed = mixSeed(opt.seed, 1000);
    net::Client client(co);
    rns::RnsPolynomial out(*s->basis, kN);
    const uint64_t ladder_end =
        nowNs() + static_cast<uint64_t>(opt.seconds * 0.2 * 1e9);
    for (uint64_t op = 3ull << 32; nowNs() < ladder_end; ++op) {
        const size_t p = op % kPairs;
        const auto& a = s->operands[2 * p];
        const auto& b = s->operands[2 * p + 1];
        report.attempted += 2;
        uint64_t t0 = nowNs();
        eng.polymulNegacyclicInto(a, b, out);
        log.add("engine.op", op, SpanLog::kNoParent, t0, nowNs());
        const bool engine_ok = samePolynomial(out, s->expect[p]);
        net::Response resp;
        t0 = nowNs();
        const bool answered =
            client.call(net::Client::makePolymul(a, b, kSpec, op), resp)
                .ok() &&
            resp.code == StatusCode::Ok;
        log.add("net.client_call", op, SpanLog::kNoParent, t0, nowNs());
        const bool client_ok = answered && responseMatches(resp, s->expect[p]);
        const bool probe_ok = probe.run(op, log);
        report.failed += !engine_ok + !client_ok + !probe_ok;
        report.mismatches += !engine_ok + (answered && !client_ok) + !probe_ok;
    }
    mqx::telemetry::setEnabled(false);
    client.disconnect();
    const auto stats2 = server.stats();
    const net::DrainReport drain = stopServer(*s, report);

    const double op_ns = log.medianNs("engine.op");
    const double req_p50 = median(traced.latency_ns);
    const double requests =
        static_cast<double>(stats1.requests - stats0.requests);
    const double coalesced = static_cast<double>(stats1.coalesced_requests -
                                                 stats0.coalesced_requests);
    const double batches = requests - coalesced +
                           static_cast<double>(stats1.coalesced_batches -
                                               stats0.coalesced_batches);
    std::vector<uint64_t> late = base.late_ns;
    std::sort(late.begin(), late.end());

    report.layer = probe.metrics(log);
    const std::vector<Metric> engine_metrics =
        engineMetrics(eng, kSpec.channels, op_ns,
                      log.medianNs("rns.polymul_channel"), before, after,
                      base_ops);
    report.layer.insert(report.layer.end(), engine_metrics.begin(),
                        engine_metrics.end());
    report.layer.insert(
        report.layer.end(),
        {
            {"net.request_vs_engine", req_p50 / op_ns, "ratio"},
            {"net.coalesced_share", requests > 0 ? coalesced / requests : 0,
             "ratio"},
            {"net.batch_mean", batches > 0 ? requests / batches : 0,
             "requests/batch"},
            {"net.shed", static_cast<double>(stats2.shed), "count"},
            {"net.deadline_misses",
             static_cast<double>(stats2.deadline_misses), "count"},
            {"net.protocol_errors",
             static_cast<double>(stats2.protocol_errors), "count"},
            {"net.client_retries", static_cast<double>(client.retries()),
             "count"},
            {"net.leased_at_drain",
             static_cast<double>(drain.leased_at_drain), "count"},
            {"proc.cpu_ms_per_op",
             static_cast<double>(base.cpu_ns) / 1e6 / base_ops, "ms"},
            {"loadgen.late_p99_us", quantileSorted(late, 0.99) / 1e3, "us"},
            {"trace.overhead_pct",
             (req_p50 / median(base.latency_ns) - 1.0) * 100.0, "%"},
        });
    finishTrace(log, opt.trace_out, traced.attempted);
    return 0;
}

} // namespace perfbench
