/**
 * @file
 * Service-layer tests (ISSUE 10 tentpole): request/response round
 * trips against a live loopback PolymulServer, bounded admission with
 * ResourceExhausted shedding, deadline propagation into the engine,
 * request coalescing, graceful drain with leasedCount()==0, hardened
 * MQX_SERVER_* env knobs, the cancel-aware bounded workspace pool —
 * and a 1000-seed socket chaos suite (mid-request disconnects, torn
 * frames, garbage bytes, slow-loris trickles, and — on
 * -DMQX_FAULT_INJECTION=ON builds — seeded net.read/net.write/
 * net.frame byte faults) that must leave the server serving a healthy
 * session throughout and drain clean afterwards.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

#include "bench_util/rng.h"
#include "engine/engine.h"
#include "net/client.h"
#include "net/server.h"
#include "net/socket.h"
#include "net/wire.h"
#include "ntt/negacyclic.h"
#include "robust/cancel.h"
#include "robust/fault_injection.h"
#include "rns/rns.h"
#include "telemetry/telemetry.h"
#include "test_util.h"

namespace mqx {
namespace {

constexpr net::BasisSpec kSpec{40, 8, 2};

const rns::RnsBasis&
testBasis()
{
    static rns::RnsBasis basis(40, 8, 2);
    return basis;
}

void
expectChannelsEqual(const std::vector<ResidueVector>& got,
                    const rns::RnsPolynomial& want)
{
    ASSERT_EQ(got.size(), want.basis().size());
    for (size_t c = 0; c < got.size(); ++c)
        EXPECT_EQ(got[c], want.channel(c)) << "channel " << c;
}

/** Server + local reference engine sharing nothing. */
struct ServiceFixture {
    explicit ServiceFixture(net::ServerOptions options = serverOptions())
        : server(std::move(options))
    {
        robust::Status s = server.start();
        EXPECT_TRUE(s.ok()) << s.toString();
    }

    static net::ServerOptions
    serverOptions()
    {
        net::ServerOptions o;
        o.engine.threads = 2;
        o.engine.max_workspaces = 8;
        return o;
    }

    net::Client
    client(uint64_t seed = 1)
    {
        net::ClientOptions o;
        o.port = server.port();
        o.jitter_seed = seed;
        return net::Client(o);
    }

    net::PolymulServer server;
    engine::Engine reference;
};

TEST(Service, PolymulRoundTrip)
{
    ServiceFixture fx;
    net::Client client = fx.client();
    rns::RnsPolynomial a = rns::randomPolynomial(testBasis(), 64, 101);
    rns::RnsPolynomial b = rns::randomPolynomial(testBasis(), 64, 102);
    net::Request req = net::Client::makePolymul(a, b, kSpec, 7);
    net::Response resp;
    robust::Status s = client.call(req, resp);
    ASSERT_TRUE(s.ok()) << s.toString();
    ASSERT_EQ(resp.code, robust::StatusCode::Ok) << resp.message;
    EXPECT_EQ(resp.request_id, 7u);
    rns::RnsPolynomial want = fx.reference.polymulNegacyclic(a, b);
    expectChannelsEqual(resp.channels, want);
    net::DrainReport report = fx.server.stop();
    EXPECT_TRUE(report.clean);
    EXPECT_GE(report.served, 1u);
}

TEST(Service, AddAndFmaOps)
{
    ServiceFixture fx;
    net::Client client = fx.client();
    const size_t n = 32;
    rns::RnsPolynomial a = rns::randomPolynomial(testBasis(), n, 201);
    rns::RnsPolynomial b = rns::randomPolynomial(testBasis(), n, 202);
    rns::RnsPolynomial c = rns::randomPolynomial(testBasis(), n, 203);
    rns::RnsPolynomial d = rns::randomPolynomial(testBasis(), n, 204);

    net::Request add = net::Client::makePolymul(a, b, kSpec, 1);
    add.op = net::OpKind::Add;
    net::Response resp;
    ASSERT_TRUE(client.call(add, resp).ok());
    ASSERT_EQ(resp.code, robust::StatusCode::Ok) << resp.message;
    expectChannelsEqual(resp.channels, fx.reference.add(a, b));

    // Fma: a*b + c*d via 4 operands (2 pairs).
    net::Request fma = net::Client::makePolymul(a, b, kSpec, 2);
    fma.op = net::OpKind::Fma;
    net::Request tail = net::Client::makePolymul(c, d, kSpec, 0);
    for (auto& v : tail.operands)
        fma.operands.push_back(std::move(v));
    ASSERT_TRUE(client.call(fma, resp).ok());
    ASSERT_EQ(resp.code, robust::StatusCode::Ok) << resp.message;
    std::vector<std::pair<const rns::RnsPolynomial*,
                          const rns::RnsPolynomial*>>
        products{{&a, &b}, {&c, &d}};
    expectChannelsEqual(resp.channels, fx.reference.fmaBatch(products));
}

TEST(Service, InvalidResiduesRejected)
{
    ServiceFixture fx;
    net::Client client = fx.client();
    rns::RnsPolynomial a = rns::randomPolynomial(testBasis(), 16, 301);
    rns::RnsPolynomial b = rns::randomPolynomial(testBasis(), 16, 302);
    net::Request req = net::Client::makePolymul(a, b, kSpec, 5);
    req.operands[0].set(0, testBasis().modulus(0).value()); // == q_0
    net::Response resp;
    ASSERT_TRUE(client.call(req, resp).ok());
    EXPECT_EQ(resp.code, robust::StatusCode::InvalidArgument);
    EXPECT_TRUE(resp.channels.empty());
}

TEST(Service, UnsatisfiableBasisSpecRejected)
{
    ServiceFixture fx;
    net::Client client = fx.client();
    rns::RnsPolynomial a = rns::randomPolynomial(testBasis(), 16, 311);
    rns::RnsPolynomial b = rns::randomPolynomial(testBasis(), 16, 312);
    net::Request req = net::Client::makePolymul(a, b, kSpec, 6);
    req.basis.bits = 8; // bits < two_adicity + 2: no such prime
    net::Response resp;
    ASSERT_TRUE(client.call(req, resp).ok());
    EXPECT_EQ(resp.code, robust::StatusCode::InvalidArgument);
}

// ---------------------------------------------------------------------------
// Deadline propagation.
// ---------------------------------------------------------------------------

TEST(Service, ExpiredDeadlineReturnsDeadlineExceeded)
{
    ServiceFixture fx;
    net::Client client = fx.client();
    rns::RnsPolynomial a = rns::randomPolynomial(testBasis(), 64, 401);
    rns::RnsPolynomial b = rns::randomPolynomial(testBasis(), 64, 402);
    // 1 ns budget: armed at admission, it is long dead by dispatch.
    net::Request req = net::Client::makePolymul(a, b, kSpec, 9, 1);
    net::Response resp;
    ASSERT_TRUE(client.call(req, resp).ok());
    EXPECT_EQ(resp.code, robust::StatusCode::DeadlineExceeded)
        << resp.message;
    EXPECT_EQ(fx.server.engine().workspacePool().leasedCount(), 0u);

    // A generous budget sails through.
    net::Request ok_req =
        net::Client::makePolymul(a, b, kSpec, 10, 30ull * 1000000000ull);
    ASSERT_TRUE(client.call(ok_req, resp).ok());
    EXPECT_EQ(resp.code, robust::StatusCode::Ok) << resp.message;
    net::DrainReport report = fx.server.stop();
    EXPECT_TRUE(report.clean);
}

// ---------------------------------------------------------------------------
// Backpressure: bounded admission sheds with ResourceExhausted.
// ---------------------------------------------------------------------------

TEST(Service, OverloadShedsWithResourceExhausted)
{
    net::ServerOptions options;
    options.engine.threads = 1;
    options.engine.max_workspaces = 4;
    options.queue_depth = 2;
    options.dispatchers = 1;
    const uint64_t served0 = telemetry::total("net.served");
    const uint64_t shed0 = telemetry::total("net.shed");
    ServiceFixture fx(options);

    // The negacyclic transform needs a 2n-th root of unity, so this
    // test gets its own deeper-two-adicity basis for a heavy n.
    const size_t n = 4096;
    constexpr net::BasisSpec deep_spec{40, 13, 2};
    const rns::RnsBasis deep_basis(40, 13, 2);
    rns::RnsPolynomial a = rns::randomPolynomial(deep_basis, n, 501);
    rns::RnsPolynomial b = rns::randomPolynomial(deep_basis, n, 502);
    // Deadline-bearing requests are never coalesced, so each one costs
    // the lone dispatcher a full polymul — the queue must overflow.
    const uint64_t huge_deadline = 120ull * 1000000000ull;
    std::vector<uint8_t> burst;
    const int kRequests = 48;
    for (int i = 0; i < kRequests; ++i) {
        net::Request req = net::Client::makePolymul(
            a, b, deep_spec, 1000 + i, huge_deadline);
        std::vector<uint8_t> frame = net::encodeRequestFrame(req);
        burst.insert(burst.end(), frame.begin(), frame.end());
    }
    net::Socket sock;
    ASSERT_TRUE(
        net::connectLoopback(fx.server.port(), 1000, sock).ok());
    ASSERT_TRUE(sock.writeAll(burst.data(), burst.size(), 10000).ok());

    // Collect one response per request.
    net::FrameReader reader;
    uint8_t buf[8192];
    int ok = 0, shed = 0, other = 0;
    std::vector<uint8_t> body;
    const auto start = std::chrono::steady_clock::now();
    while (ok + shed + other < kRequests &&
           std::chrono::steady_clock::now() - start <
               std::chrono::seconds(120)) {
        net::IoResult io = sock.readSome(buf, sizeof(buf), 100);
        ASSERT_TRUE(io.status.ok());
        ASSERT_FALSE(io.eof);
        if (io.timed_out)
            continue;
        reader.feed(buf, io.bytes);
        while (reader.next(body) == net::FrameReader::Next::Frame) {
            net::Response resp;
            ASSERT_TRUE(
                net::decodeResponse(body.data(), body.size(), resp).ok());
            if (resp.code == robust::StatusCode::Ok)
                ++ok;
            else if (resp.code == robust::StatusCode::ResourceExhausted)
                ++shed;
            else
                ++other;
        }
    }
    EXPECT_EQ(ok + shed + other, kRequests);
    EXPECT_GE(ok, 1) << "bounded queue must still serve accepted work";
    EXPECT_GE(shed, 1) << "overflow must shed as ResourceExhausted";
    EXPECT_EQ(other, 0);
    sock.closeNow();

    net::DrainReport report = fx.server.stop();
    EXPECT_TRUE(report.clean);
    EXPECT_EQ(fx.server.stats().shed, static_cast<uint64_t>(shed));
    // stats(), the drain report and the telemetry snapshot read the
    // same counters.
    EXPECT_EQ(report.shed, fx.server.stats().shed);
    EXPECT_EQ(report.served, fx.server.stats().served);
    EXPECT_EQ(report.served, static_cast<uint64_t>(kRequests));
    EXPECT_EQ(telemetry::total("net.shed") - shed0, report.shed);
    EXPECT_EQ(telemetry::total("net.served") - served0, report.served);
}

// ---------------------------------------------------------------------------
// Coalescing: same-shape no-deadline polymuls ride one engine batch.
// ---------------------------------------------------------------------------

TEST(Service, CompatibleRequestsCoalesce)
{
    net::ServerOptions options;
    options.engine.threads = 2;
    options.coalesce_window_us = 20000;
    options.dispatchers = 1;
    ServiceFixture fx(options);

    const size_t n = 64;
    const int kRequests = 8;
    std::vector<rns::RnsPolynomial> as, bs;
    std::vector<uint8_t> burst;
    for (int i = 0; i < kRequests; ++i) {
        as.push_back(
            rns::randomPolynomial(testBasis(), n, 600 + 2 * i));
        bs.push_back(
            rns::randomPolynomial(testBasis(), n, 601 + 2 * i));
        net::Request req =
            net::Client::makePolymul(as[i], bs[i], kSpec, 700 + i);
        std::vector<uint8_t> frame = net::encodeRequestFrame(req);
        burst.insert(burst.end(), frame.begin(), frame.end());
    }
    net::Socket sock;
    ASSERT_TRUE(
        net::connectLoopback(fx.server.port(), 1000, sock).ok());
    ASSERT_TRUE(sock.writeAll(burst.data(), burst.size(), 5000).ok());

    net::FrameReader reader;
    uint8_t buf[8192];
    std::vector<uint8_t> body;
    int got = 0;
    const auto start = std::chrono::steady_clock::now();
    while (got < kRequests && std::chrono::steady_clock::now() - start <
                                  std::chrono::seconds(30)) {
        net::IoResult io = sock.readSome(buf, sizeof(buf), 100);
        ASSERT_TRUE(io.status.ok());
        if (io.timed_out)
            continue;
        reader.feed(buf, io.bytes);
        while (reader.next(body) == net::FrameReader::Next::Frame) {
            net::Response resp;
            ASSERT_TRUE(
                net::decodeResponse(body.data(), body.size(), resp).ok());
            ASSERT_EQ(resp.code, robust::StatusCode::Ok) << resp.message;
            const size_t idx = resp.request_id - 700;
            ASSERT_LT(idx, as.size());
            expectChannelsEqual(
                resp.channels,
                fx.reference.polymulNegacyclic(as[idx], bs[idx]));
            ++got;
        }
    }
    EXPECT_EQ(got, kRequests);
    sock.closeNow();
    // With a 20 ms window and one dispatcher, the burst lands in far
    // fewer batches than requests.
    EXPECT_GE(fx.server.stats().coalesced_requests, 2u);
    EXPECT_TRUE(fx.server.stop().clean);
}

TEST(Service, RequestLatencyRecordedForEveryAdmittedResponse)
{
    // net.request holds one admit-to-response sample per admitted
    // request, whatever its status and whichever path served it: alone
    // (executeOne) or in a coalesced batch, where a request that fails
    // residue validation is answered without joining the batch.
    net::ServerOptions options;
    options.engine.threads = 2;
    options.coalesce_window_us = 20000;
    options.dispatchers = 1;
    ServiceFixture fx(options);
    const telemetry::Histogram& hist = telemetry::spanSite("net.request").hist;
    const uint64_t count0 = hist.snapshot().count;

    const size_t n = 64;
    // A request whose first operand's first residue is q itself.
    auto makeRequest = [&](uint64_t id, bool bad) {
        net::Request req = net::Client::makePolymul(
            rns::randomPolynomial(testBasis(), n, 2 * id),
            rns::randomPolynomial(testBasis(), n, 2 * id + 1), kSpec, id);
        if (bad)
            req.operands[0].set(0, testBasis().modulus(0).value());
        return net::encodeRequestFrame(req);
    };
    net::Socket sock;
    ASSERT_TRUE(net::connectLoopback(fx.server.port(), 1000, sock).ok());
    net::FrameReader reader;
    // Read @p want responses; returns the ids answered with an error.
    auto readResponses = [&](int want) {
        std::vector<uint64_t> failed;
        uint8_t buf[8192];
        std::vector<uint8_t> body;
        int got = 0;
        const auto start = std::chrono::steady_clock::now();
        while (got < want && std::chrono::steady_clock::now() - start <
                                 std::chrono::seconds(30)) {
            net::IoResult io = sock.readSome(buf, sizeof(buf), 100);
            EXPECT_TRUE(io.status.ok());
            if (!io.status.ok())
                break;
            if (io.timed_out)
                continue;
            reader.feed(buf, io.bytes);
            while (reader.next(body) == net::FrameReader::Next::Frame) {
                net::Response resp;
                EXPECT_TRUE(
                    net::decodeResponse(body.data(), body.size(), resp).ok());
                if (resp.code != robust::StatusCode::Ok)
                    failed.push_back(resp.request_id);
                ++got;
            }
        }
        EXPECT_EQ(got, want);
        return failed;
    };

    // Two single requests, one good and one bad, each answered before
    // the next is sent.
    for (uint64_t id : {900u, 901u}) {
        const std::vector<uint8_t> frame = makeRequest(id, id == 901);
        ASSERT_TRUE(sock.writeAll(frame.data(), frame.size(), 5000).ok());
        EXPECT_EQ(readResponses(1), (id == 901 ? std::vector<uint64_t>{901}
                                               : std::vector<uint64_t>{}));
    }
    // A burst that coalesces, with one bad request in the middle.
    const int kBurst = 6;
    const uint64_t kBad = 913;
    std::vector<uint8_t> burst;
    for (uint64_t id = 910; id < 910 + kBurst; ++id) {
        const std::vector<uint8_t> frame = makeRequest(id, id == kBad);
        burst.insert(burst.end(), frame.begin(), frame.end());
    }
    const uint64_t coalesced0 = fx.server.stats().coalesced_requests;
    ASSERT_TRUE(sock.writeAll(burst.data(), burst.size(), 5000).ok());
    EXPECT_EQ(readResponses(kBurst), std::vector<uint64_t>{kBad});
    EXPECT_GE(fx.server.stats().coalesced_requests - coalesced0, 2u);
    sock.closeNow();

    EXPECT_EQ(hist.snapshot().count - count0, uint64_t{2 + kBurst});
    EXPECT_TRUE(fx.server.stop().clean);
}

// ---------------------------------------------------------------------------
// Session cap.
// ---------------------------------------------------------------------------

TEST(Service, SessionLimitRejectsExtraConnections)
{
    net::ServerOptions options;
    options.max_sessions = 1;
    ServiceFixture fx(options);

    net::Socket first;
    ASSERT_TRUE(
        net::connectLoopback(fx.server.port(), 1000, first).ok());
    // Make sure the first session is registered before the second
    // connection races it.
    std::this_thread::sleep_for(std::chrono::milliseconds(150));

    net::Socket second;
    ASSERT_TRUE(
        net::connectLoopback(fx.server.port(), 1000, second).ok());
    net::FrameReader reader;
    uint8_t buf[4096];
    std::vector<uint8_t> body;
    net::Response resp;
    bool got_response = false;
    const auto start = std::chrono::steady_clock::now();
    while (!got_response && std::chrono::steady_clock::now() - start <
                                std::chrono::seconds(10)) {
        net::IoResult io = second.readSome(buf, sizeof(buf), 100);
        ASSERT_TRUE(io.status.ok());
        if (io.eof)
            break;
        if (io.timed_out)
            continue;
        reader.feed(buf, io.bytes);
        if (reader.next(body) == net::FrameReader::Next::Frame) {
            ASSERT_TRUE(
                net::decodeResponse(body.data(), body.size(), resp).ok());
            got_response = true;
        }
    }
    ASSERT_TRUE(got_response);
    EXPECT_EQ(resp.code, robust::StatusCode::ResourceExhausted);
    EXPECT_GE(fx.server.stats().sessions_rejected, 1u);
}

// ---------------------------------------------------------------------------
// Client retry policy.
// ---------------------------------------------------------------------------

TEST(Service, ClientRetriesOnlyRetryableCodes)
{
    EXPECT_TRUE(
        robust::statusRetryable(robust::StatusCode::ResourceExhausted));
    EXPECT_TRUE(
        robust::statusRetryable(robust::StatusCode::FaultInjected));
    EXPECT_FALSE(
        robust::statusRetryable(robust::StatusCode::InvalidArgument));
    EXPECT_FALSE(
        robust::statusRetryable(robust::StatusCode::DeadlineExceeded));
    EXPECT_FALSE(
        robust::statusRetryable(robust::StatusCode::DataCorruption));
    EXPECT_FALSE(robust::statusRetryable(robust::StatusCode::Internal));

    // InvalidArgument comes back after exactly one attempt (no retry).
    ServiceFixture fx;
    net::Client client = fx.client();
    rns::RnsPolynomial a = rns::randomPolynomial(testBasis(), 16, 801);
    rns::RnsPolynomial b = rns::randomPolynomial(testBasis(), 16, 802);
    net::Request req = net::Client::makePolymul(a, b, kSpec, 11);
    req.operands[0].set(0, testBasis().modulus(0).value());
    net::Response resp;
    ASSERT_TRUE(client.call(req, resp).ok());
    EXPECT_EQ(resp.code, robust::StatusCode::InvalidArgument);
    EXPECT_EQ(client.retries(), 0u);
}

// ---------------------------------------------------------------------------
// Hardened MQX_SERVER_* knobs (satellite).
// ---------------------------------------------------------------------------

TEST(Service, EnvKnobsFallBackOnGarbage)
{
    const net::ServerOptions defaults;
    ::setenv("MQX_SERVER_QUEUE_DEPTH", "banana", 1);
    ::setenv("MQX_SERVER_MAX_SESSIONS", "-3", 1);
    ::setenv("MQX_SERVER_COALESCE_WINDOW_US", "12x", 1);
    ::setenv("MQX_SERVER_IDLE_TIMEOUT_MS", "", 1);
    ::setenv("MQX_SERVER_DISPATCHERS", "99999999999999999999", 1);
    ::setenv("MQX_SERVER_PORT", "70000", 1); // > 65535
    net::ServerOptions parsed = net::ServerOptions::fromEnv();
    EXPECT_EQ(parsed.queue_depth, defaults.queue_depth);
    EXPECT_EQ(parsed.max_sessions, defaults.max_sessions);
    EXPECT_EQ(parsed.coalesce_window_us, defaults.coalesce_window_us);
    EXPECT_EQ(parsed.idle_timeout_ms, defaults.idle_timeout_ms);
    EXPECT_EQ(parsed.dispatchers, defaults.dispatchers);
    EXPECT_EQ(parsed.port, defaults.port);

    ::setenv("MQX_SERVER_QUEUE_DEPTH", "128", 1);
    ::setenv("MQX_SERVER_MAX_SESSIONS", "7", 1);
    ::setenv("MQX_SERVER_COALESCE_WINDOW_US", "0", 1);
    ::setenv("MQX_SERVER_IDLE_TIMEOUT_MS", "250", 1);
    ::setenv("MQX_SERVER_DISPATCHERS", "3", 1);
    ::setenv("MQX_SERVER_PORT", "0", 1);
    parsed = net::ServerOptions::fromEnv();
    EXPECT_EQ(parsed.queue_depth, 128u);
    EXPECT_EQ(parsed.max_sessions, 7u);
    EXPECT_EQ(parsed.coalesce_window_us, 0u);
    EXPECT_EQ(parsed.idle_timeout_ms, 250u);
    EXPECT_EQ(parsed.dispatchers, 3u);
    EXPECT_EQ(parsed.port, 0u);

    for (const char* var :
         {"MQX_SERVER_QUEUE_DEPTH", "MQX_SERVER_MAX_SESSIONS",
          "MQX_SERVER_COALESCE_WINDOW_US", "MQX_SERVER_IDLE_TIMEOUT_MS",
          "MQX_SERVER_DISPATCHERS", "MQX_SERVER_PORT"})
        ::unsetenv(var);
}

// ---------------------------------------------------------------------------
// Bounded, cancel-aware workspace pool (satellite fix + regression).
// ---------------------------------------------------------------------------

std::shared_ptr<const ntt::NegacyclicTables>
poolTables()
{
    static auto tables = std::make_shared<const ntt::NegacyclicTables>(
        ntt::findNttPrime(40, 8), 64);
    return tables;
}

TEST(WorkspacePool, CancelledTokenUnblocksSaturatedAcquire)
{
    ntt::NegacyclicWorkspacePool pool(1);
    EXPECT_EQ(pool.capacity(), 1u);
    auto held = pool.acquire(poolTables(), bestBackend());
    // Pre-cancelled token: acquire on the saturated pool must throw
    // Cancelled instead of blocking forever (the ISSUE 10 fix).
    robust::CancelToken cancelled;
    cancelled.requestCancel();
    EXPECT_THROW(pool.acquire(poolTables(), bestBackend(), &cancelled),
                 robust::StatusError);
    EXPECT_EQ(pool.leasedCount(), 1u);

    // A deadline that expires mid-wait unblocks promptly too.
    robust::CancelToken short_deadline =
        robust::CancelToken::withDeadlineNs(20 * 1000000ull);
    const auto start = std::chrono::steady_clock::now();
    try {
        pool.acquire(poolTables(), bestBackend(), &short_deadline);
        FAIL() << "acquire must not succeed while the pool is saturated";
    } catch (const robust::StatusError& e) {
        EXPECT_EQ(e.status().code(),
                  robust::StatusCode::DeadlineExceeded);
    }
    const auto waited = std::chrono::steady_clock::now() - start;
    EXPECT_LT(waited, std::chrono::seconds(5));
    EXPECT_EQ(pool.leasedCount(), 1u);
}

TEST(WorkspacePool, BoundedAcquireBlocksUntilRelease)
{
    ntt::NegacyclicWorkspacePool pool(1);
    std::atomic<bool> acquired{false};
    auto held = std::make_unique<ntt::NegacyclicWorkspacePool::Lease>(
        pool.acquire(poolTables(), bestBackend()));
    std::thread waiter([&] {
        auto lease = pool.acquire(poolTables(), bestBackend());
        acquired.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_FALSE(acquired.load());
    held.reset(); // release → waiter proceeds
    waiter.join();
    EXPECT_TRUE(acquired.load());
    EXPECT_EQ(pool.leasedCount(), 0u);
    EXPECT_EQ(pool.totalLeases(), 2u);
}

TEST(WorkspacePool, UnboundedPoolNeverWaits)
{
    ntt::NegacyclicWorkspacePool pool; // capacity 0 = unbounded
    auto l1 = pool.acquire(poolTables(), bestBackend());
    auto l2 = pool.acquire(poolTables(), bestBackend());
    auto l3 = pool.acquire(poolTables(), bestBackend());
    EXPECT_EQ(pool.leasedCount(), 3u);
}

// ---------------------------------------------------------------------------
// Chaos suite: >= 1000 seeded socket-hostility runs.
// ---------------------------------------------------------------------------

TEST(ServiceChaos, ThousandSeededHostileClients)
{
    net::ServerOptions options;
    options.engine.threads = 2;
    options.engine.max_workspaces = 8;
    options.max_sessions = 64;
    options.idle_timeout_ms = 50; // fast slow-loris reaping
    ServiceFixture fx(options);

    net::ClientOptions copt;
    copt.port = fx.server.port();
    copt.jitter_seed = 99;
    copt.max_attempts = 6;
    net::Client healthy(copt);

    const size_t n = 16;
    rns::RnsPolynomial a = rns::randomPolynomial(testBasis(), n, 901);
    rns::RnsPolynomial b = rns::randomPolynomial(testBasis(), n, 902);
    const rns::RnsPolynomial want = fx.reference.polymulNegacyclic(a, b);
    const std::vector<uint8_t> good_frame = net::encodeRequestFrame(
        net::Client::makePolymul(a, b, kSpec, 12345));

    // Slow-loris sockets are left open (partial header, then silence)
    // for the server's idle timer to reap; cap how many we hold.
    std::vector<net::Socket> lorises;

    const int kSeeds = 1000;
    for (int seed = 0; seed < kSeeds; ++seed) {
        SplitMix64 rng(static_cast<uint64_t>(seed) * 7919 + 1);
        switch (seed % 4) {
        case 0: {
            // Mid-request disconnect: a prefix of a valid frame, then
            // a hard close.
            net::Socket sock;
            if (!net::connectLoopback(fx.server.port(), 500, sock).ok())
                break;
            const size_t cut = 1 + rng.next() % (good_frame.size() - 1);
            (void)sock.writeAll(good_frame.data(), cut, 500);
            sock.closeNow();
            break;
        }
        case 1: {
            // Garbage / torn frames: random bytes, sometimes with a
            // valid magic so the torn-body paths run too.
            net::Socket sock;
            if (!net::connectLoopback(fx.server.port(), 500, sock).ok())
                break;
            std::vector<uint8_t> junk(16 + rng.next() % 64);
            for (auto& byte : junk)
                byte = static_cast<uint8_t>(rng.next());
            if (seed % 8 == 1) {
                // valid magic + hostile body_len
                junk[0] = 0x4D;
                junk[1] = 0x51;
                junk[2] = 0x58;
                junk[3] = 0x53;
            }
            (void)sock.writeAll(junk.data(), junk.size(), 500);
            sock.closeNow();
            break;
        }
        case 2: {
            // Byte-level chaos through the fault-injection registry
            // (torn reads, corrupted frames, stalled writes) when the
            // harness is compiled in; extra garbage traffic otherwise.
            if (robust::faultInjectionCompiledIn()) {
                robust::FaultPlan plan(static_cast<uint64_t>(seed));
                robust::FaultSpec short_read;
                short_read.action = robust::FaultAction::ShortRead;
                short_read.probability = 0.5;
                short_read.max_fires = 2;
                robust::FaultSpec flip;
                flip.action = robust::FaultAction::FlipBit;
                flip.probability = 0.5;
                flip.max_fires = 2;
                robust::FaultSpec stall;
                stall.action = robust::FaultAction::Stall;
                stall.probability = 0.5;
                stall.max_fires = 1;
                stall.stall_ns = 2 * 1000000ull; // 2 ms write stall
                plan.arm("net.read", seed % 8 < 4 ? short_read : flip);
                plan.arm("net.frame", flip);
                plan.arm("net.write", stall);
                robust::ScopedFaultInjection scope(std::move(plan));
                net::ClientOptions chaos_opt;
                chaos_opt.port = fx.server.port();
                chaos_opt.jitter_seed = static_cast<uint64_t>(seed);
                chaos_opt.io_timeout_ms = 300;
                chaos_opt.max_attempts = 2;
                net::Client chaos(chaos_opt);
                net::Request req = net::Client::makePolymul(
                    a, b, kSpec, 50000 + static_cast<uint64_t>(seed));
                net::Response resp;
                (void)chaos.call(req, resp); // any verdict is legal
                chaos.disconnect();
            } else {
                net::Socket sock;
                if (net::connectLoopback(fx.server.port(), 500, sock)
                        .ok()) {
                    (void)sock.writeAll(good_frame.data(),
                                        good_frame.size() / 2, 500);
                    sock.closeNow();
                }
            }
            break;
        }
        case 3: {
            // Slow-loris: a few header bytes, then silence. The
            // socket stays open; the idle timer must reap it.
            net::Socket sock;
            if (!net::connectLoopback(fx.server.port(), 500, sock).ok())
                break;
            const size_t trickle = 1 + rng.next() % 7;
            (void)sock.writeAll(good_frame.data(), trickle, 500);
            lorises.push_back(std::move(sock));
            if (lorises.size() > 8)
                lorises.erase(lorises.begin());
            break;
        }
        }
        // The healthy session must keep getting correct answers no
        // matter what the hostile peers did.
        if (seed % 25 == 24) {
            net::Request req = net::Client::makePolymul(
                a, b, kSpec, 90000 + static_cast<uint64_t>(seed));
            net::Response resp;
            robust::Status s = healthy.call(req, resp);
            ASSERT_TRUE(s.ok()) << "seed " << seed << ": " << s.toString();
            ASSERT_EQ(resp.code, robust::StatusCode::Ok)
                << "seed " << seed << ": " << resp.message;
            expectChannelsEqual(resp.channels, want);
        }
    }
    lorises.clear();

    // Final health check + graceful drain: nothing the chaos did may
    // leak a workspace lease.
    net::Request req = net::Client::makePolymul(a, b, kSpec, 999999);
    net::Response resp;
    ASSERT_TRUE(healthy.call(req, resp).ok());
    ASSERT_EQ(resp.code, robust::StatusCode::Ok) << resp.message;
    expectChannelsEqual(resp.channels, want);

    net::DrainReport report = fx.server.stop();
    EXPECT_TRUE(report.clean)
        << "leases still held after drain: " << report.leased_at_drain;
    EXPECT_EQ(fx.server.engine().workspacePool().leasedCount(), 0u);
    EXPECT_GE(report.served, 40u);
}

} // namespace
} // namespace mqx
