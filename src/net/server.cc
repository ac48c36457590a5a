/**
 * @file
 * PolymulServer implementation. See server.h for the architecture
 * (accept → sessions → bounded admission queue → coalescing
 * dispatchers → engine) and the drain/backpressure contracts.
 */
#include "net/server.h"

#include <chrono>
#include <new>
#include <utility>

#include "core/env.h"
#include "robust/fault_injection.h"
#include "telemetry/telemetry.h"

namespace mqx {
namespace net {

namespace {

/** Largest coalesced batch one dispatcher assembles. */
constexpr size_t kMaxBatch = 16;
/** Accept/read poll tick: bounds shutdown latency, not throughput. */
constexpr int kPollTickMs = 20;
/** Budget for writing one response (stalled-peer guard). */
constexpr int kWriteTimeoutMs = 2000;

/**
 * Map whatever just flew out of the engine/codec onto the wire status
 * taxonomy. Call from inside a catch block only.
 */
robust::Status
currentExceptionStatus()
{
    try {
        throw;
    } catch (const robust::StatusError& e) {
        return e.status();
    } catch (const InvalidArgument& e) {
        return robust::Status(robust::StatusCode::InvalidArgument,
                              e.what());
    } catch (const std::bad_alloc&) {
        return robust::Status(robust::StatusCode::ResourceExhausted,
                              "allocation failed");
    } catch (const std::exception& e) {
        return robust::Status(robust::StatusCode::Internal, e.what());
    } catch (...) {
        return robust::Status(robust::StatusCode::Internal,
                              "unknown exception");
    }
}

bool
coalescable(const Request& req, bool has_token)
{
    // Deadline-bearing requests run alone under their own token: one
    // slow lane must not be able to cancel a whole batch.
    return req.op == OpKind::Polymul && !has_token;
}

} // namespace

/** One live connection: socket + reader thread + write serialization. */
struct PolymulServer::Session {
    Socket sock;
    std::thread thread;
    std::atomic<bool> stop{false};
    std::atomic<bool> done{false};
    std::mutex write_mutex;
};

ServerOptions
ServerOptions::fromEnv()
{
    ServerOptions o;
    o.port = static_cast<uint16_t>(
        core::envUint("MQX_SERVER_PORT", o.port, 0, 65535));
    o.queue_depth = static_cast<size_t>(core::envUint(
        "MQX_SERVER_QUEUE_DEPTH", o.queue_depth, 1, 1u << 16));
    o.max_sessions = static_cast<size_t>(core::envUint(
        "MQX_SERVER_MAX_SESSIONS", o.max_sessions, 1, 4096));
    o.coalesce_window_us = core::envUint(
        "MQX_SERVER_COALESCE_WINDOW_US", o.coalesce_window_us, 0, 1000000);
    o.idle_timeout_ms = core::envUint("MQX_SERVER_IDLE_TIMEOUT_MS",
                                      o.idle_timeout_ms, 1, 600000);
    o.dispatchers = static_cast<size_t>(
        core::envUint("MQX_SERVER_DISPATCHERS", o.dispatchers, 1, 64));
    return o;
}

PolymulServer::PolymulServer(ServerOptions options)
    : options_(std::move(options)), engine_(options_.engine)
{
}

PolymulServer::~PolymulServer()
{
    stop();
}

robust::Status
PolymulServer::start()
{
    checkArg(!running_.load(std::memory_order_acquire) && !stopped_,
             "PolymulServer::start: already started");
    robust::Status s =
        ListenSocket::listenLoopback(options_.port, listener_);
    if (!s.ok())
        return s;
    running_.store(true, std::memory_order_release);
    accept_thread_ = std::thread([this] { acceptLoop(); });
    for (size_t i = 0; i < options_.dispatchers; ++i)
        dispatch_threads_.emplace_back([this] { dispatchLoop(); });
    return robust::Status();
}

void
PolymulServer::acceptLoop()
{
    while (!draining_.load(std::memory_order_acquire)) {
        Socket sock;
        bool timed_out = false;
        robust::Status s;
        try {
            s = listener_.acceptOne(kPollTickMs, sock, timed_out);
        } catch (const robust::StatusError&) {
            // Injected net.accept failure: drop this connection
            // attempt, keep serving.
            accept_faults_.add(1);
            continue;
        }
        // Reap finished session threads so max_sessions counts live
        // connections, not historical ones.
        {
            std::lock_guard<std::mutex> lock(sessions_mutex_);
            for (auto it = sessions_.begin(); it != sessions_.end();) {
                if ((*it)->done.load(std::memory_order_acquire)) {
                    if ((*it)->thread.joinable())
                        (*it)->thread.join();
                    it = sessions_.erase(it);
                } else {
                    ++it;
                }
            }
        }
        if (!s.ok()) {
            if (draining_.load(std::memory_order_acquire))
                break;
            accept_errors_.add(1);
            continue;
        }
        if (timed_out)
            continue;
        accepted_.add(1);
        std::shared_ptr<Session> session;
        {
            std::lock_guard<std::mutex> lock(sessions_mutex_);
            if (sessions_.size() >= options_.max_sessions) {
                // Over the session cap: count the rejection first (a
                // peer that sees the response must also see the stat),
                // then tell it why before closing, so its client
                // backoff kicks in.
                sessions_rejected_.add(1);
                Response resp;
                resp.code = robust::StatusCode::ResourceExhausted;
                resp.message = "session limit reached";
                std::vector<uint8_t> frame = encodeResponseFrame(resp);
                try {
                    (void)sock.writeAll(frame.data(), frame.size(),
                                        kPollTickMs);
                } catch (const robust::StatusError&) {
                    // injected net.write fault: nothing to salvage
                }
                continue;
            }
            session = std::make_shared<Session>();
            session->sock = std::move(sock);
            sessions_.push_back(session);
        }
        session->thread =
            std::thread([this, session] { sessionLoop(session); });
    }
}

void
PolymulServer::sessionLoop(std::shared_ptr<Session> session)
{
    FrameReader reader;
    uint8_t buf[8192];
    uint64_t last_activity_ns = telemetry::nowNs();
    const uint64_t idle_budget_ns = options_.idle_timeout_ms * 1000000ull;
    bool alive = true;
    while (alive && !session->stop.load(std::memory_order_acquire)) {
        IoResult io;
        try {
            io = session->sock.readSome(buf, sizeof(buf), kPollTickMs);
        } catch (const robust::StatusError&) {
            // injected net.read Throw: treat as a dropped peer
            break;
        }
        if (!io.status.ok() || io.eof)
            break;
        if (io.timed_out) {
            if (telemetry::nowNs() - last_activity_ns > idle_budget_ns) {
                // Slow-loris guard: a peer trickling partial frames
                // (or nothing) cannot pin a session forever.
                idle_closed_.add(1);
                break;
            }
            continue;
        }
        last_activity_ns = telemetry::nowNs();
        reader.feed(buf, io.bytes);
        std::vector<uint8_t> body;
        while (alive) {
            FrameReader::Next next = reader.next(body);
            if (next == FrameReader::Next::NeedMore)
                break;
            if (next == FrameReader::Next::Error) {
                // Framing is lost; nothing further on this connection
                // can be trusted. Tell the peer and hang up.
                protocol_errors_.add(1);
                sendStatus(*session, 0,
                           robust::StatusCode::InvalidArgument,
                           reader.error().message());
                alive = false;
                break;
            }
            size_t body_len = body.size();
            try {
                // Post-framing corruption hook: a FlipBit/ShortRead
                // here exercises the decoder's malformed-body paths.
                MQX_FAULT_POINT_BYTES("net.frame", body.data(),
                                      &body_len);
            } catch (const robust::StatusError&) {
                alive = false;
                break;
            }
            Request req;
            robust::Status decoded =
                decodeRequest(body.data(), body_len, req);
            if (!decoded.ok()) {
                protocol_errors_.add(1);
                // Framing itself was intact, so the session survives
                // a bad body — only this request is rejected.
                sendStatus(*session, req.request_id, decoded.code(),
                           decoded.message());
                continue;
            }
            requests_.add(1);
            const uint64_t request_id = req.request_id;
            Pending pending;
            pending.session = session;
            if (req.deadline_ns != 0) {
                // Token armed at ADMISSION: queueing time counts
                // against the caller's budget.
                pending.token =
                    robust::CancelToken::withDeadlineNs(req.deadline_ns);
                pending.has_token = true;
            }
            pending.request = std::move(req);
            pending.admit_ns = telemetry::nowNs();
            if (!admit(std::move(pending))) {
                shed_.add(1);
                sendStatus(*session, request_id,
                           robust::StatusCode::ResourceExhausted,
                           "admission queue full");
            }
        }
    }
    {
        // write_mutex serializes the close against concurrent response
        // writes (dispatchers finishing this session's in-flight work)
        // and against stop()'s shutdownBoth.
        std::lock_guard<std::mutex> lock(session->write_mutex);
        session->sock.closeNow();
    }
    session->done.store(true, std::memory_order_release);
}

bool
PolymulServer::admit(Pending&& pending)
{
    std::lock_guard<std::mutex> lock(queue_mutex_);
    if (draining_.load(std::memory_order_acquire) ||
        queue_.size() >= options_.queue_depth)
        return false;
    queue_.push_back(std::move(pending));
    queue_cv_.notify_one();
    return true;
}

void
PolymulServer::dispatchLoop()
{
    for (;;) {
        std::vector<Pending> batch;
        {
            std::unique_lock<std::mutex> lock(queue_mutex_);
            // Timed wait: a notify stolen by a coalescing sibling can
            // never strand an item; worst case it waits one tick.
            queue_cv_.wait_for(lock, std::chrono::milliseconds(10), [&] {
                return stop_dispatch_.load(std::memory_order_acquire) ||
                       !queue_.empty();
            });
            if (queue_.empty()) {
                if (stop_dispatch_.load(std::memory_order_acquire))
                    return;
                continue;
            }
            ++busy_dispatchers_;
            batch.push_back(std::move(queue_.front()));
            queue_.pop_front();
            if (coalescable(batch[0].request, batch[0].has_token)) {
                const BasisSpec spec = batch[0].request.basis;
                const uint32_t n = batch[0].request.n;
                auto harvest = [&] {
                    for (auto it = queue_.begin();
                         it != queue_.end() && batch.size() < kMaxBatch;) {
                        if (coalescable(it->request, it->has_token) &&
                            it->request.basis == spec &&
                            it->request.n == n) {
                            batch.push_back(std::move(*it));
                            it = queue_.erase(it);
                        } else {
                            ++it;
                        }
                    }
                };
                harvest();
                if (batch.size() < kMaxBatch &&
                    options_.coalesce_window_us > 0 &&
                    !stop_dispatch_.load(std::memory_order_acquire)) {
                    // Hold the lane open briefly: requests arriving
                    // within the window ride the same engine batch.
                    queue_cv_.wait_for(lock,
                                       std::chrono::microseconds(
                                           options_.coalesce_window_us));
                    harvest();
                }
            }
        }
        execute(batch);
        {
            std::lock_guard<std::mutex> lock(queue_mutex_);
            --busy_dispatchers_;
            if (queue_.empty() && busy_dispatchers_ == 0)
                drained_cv_.notify_all();
        }
    }
}

std::shared_ptr<rns::RnsBasis>
PolymulServer::basisFor(const BasisSpec& spec)
{
    const auto key =
        std::make_tuple(spec.bits, spec.two_adicity, spec.channels);
    std::lock_guard<std::mutex> lock(basis_mutex_);
    auto it = basis_cache_.find(key);
    if (it != basis_cache_.end())
        return it->second;
    // May throw InvalidArgument (unsatisfiable bits/two_adicity) —
    // mapped to a wire status by the caller.
    auto basis = std::make_shared<rns::RnsBasis>(
        static_cast<int>(spec.bits), static_cast<int>(spec.two_adicity),
        static_cast<int>(spec.channels));
    basis_cache_.emplace(key, basis);
    return basis;
}

namespace {

/** Move wire operands into an RnsPolynomial (no copy: buffer swap). */
rns::RnsPolynomial
assemblePoly(const rns::RnsBasis& basis, Request& req, size_t operand)
{
    rns::RnsPolynomial poly(basis, req.n);
    const size_t k = req.basis.channels;
    for (size_t c = 0; c < k; ++c)
        poly.channel(c).swap(req.operands[operand * k + c]);
    return poly;
}

void
extractChannels(rns::RnsPolynomial& poly, Response& resp)
{
    resp.basis.channels = static_cast<uint32_t>(poly.basis().size());
    resp.n = static_cast<uint32_t>(poly.n());
    resp.channels.resize(poly.basis().size());
    for (size_t c = 0; c < resp.channels.size(); ++c)
        resp.channels[c].swap(poly.channel(c));
}

} // namespace

Response
PolymulServer::runEngineOp(Pending& pending)
{
    Request& req = pending.request;
    Response resp;
    resp.request_id = req.request_id;
    const robust::CancelToken* token =
        pending.has_token ? &pending.token : nullptr;
    auto basis = basisFor(req.basis); // throws on bad spec
    robust::Status valid = validateResidues(req, *basis);
    if (!valid.ok()) {
        resp.code = valid.code();
        resp.message = valid.message();
        return resp;
    }
    if (token)
        pending.token.checkpoint("net.dispatch");
    rns::RnsPolynomial c(*basis, req.n);
    switch (req.op) {
    case OpKind::Polymul: {
        rns::RnsPolynomial a = assemblePoly(*basis, req, 0);
        rns::RnsPolynomial b = assemblePoly(*basis, req, 1);
        engine_.polymulNegacyclicInto(a, b, c, token);
        break;
    }
    case OpKind::Add: {
        rns::RnsPolynomial a = assemblePoly(*basis, req, 0);
        rns::RnsPolynomial b = assemblePoly(*basis, req, 1);
        engine_.addInto(a, b, c, token);
        break;
    }
    case OpKind::Fma: {
        const size_t pairs = req.operandCount() / 2;
        std::vector<rns::RnsPolynomial> polys;
        polys.reserve(pairs * 2);
        for (size_t p = 0; p < pairs * 2; ++p)
            polys.push_back(assemblePoly(*basis, req, p));
        std::vector<std::pair<const rns::RnsPolynomial*,
                              const rns::RnsPolynomial*>>
            products;
        products.reserve(pairs);
        for (size_t p = 0; p < pairs; ++p)
            products.emplace_back(&polys[2 * p], &polys[2 * p + 1]);
        engine_.fmaBatchInto(products, c, token);
        break;
    }
    }
    resp.code = robust::StatusCode::Ok;
    resp.basis = req.basis;
    extractChannels(c, resp);
    return resp;
}

void
PolymulServer::executeOne(Pending& pending)
{
    Response resp;
    resp.request_id = pending.request.request_id;
    try {
        resp = runEngineOp(pending);
    } catch (...) {
        robust::Status s = currentExceptionStatus();
        resp.code = s.code();
        resp.message = s.message();
        resp.basis = BasisSpec();
        resp.n = 0;
        resp.channels.clear();
    }
    if (resp.code == robust::StatusCode::DeadlineExceeded)
        deadline_misses_.add(1);
    respond(*pending.session, resp, pending.admit_ns);
}

void
PolymulServer::execute(std::vector<Pending>& batch)
{
    if (batch.size() == 1) {
        executeOne(batch[0]);
        return;
    }
    // Coalesced path: every entry is a no-deadline polymul with the
    // same (basis, n) — one engine batch serves them all.
    std::shared_ptr<rns::RnsBasis> basis;
    try {
        basis = basisFor(batch[0].request.basis);
    } catch (...) {
        robust::Status s = currentExceptionStatus();
        for (Pending& p : batch)
            sendStatus(*p.session, p.request.request_id, s.code(),
                       s.message(), p.admit_ns);
        return;
    }
    std::vector<Pending*> live;
    std::vector<rns::RnsPolynomial> polys;
    polys.reserve(batch.size() * 2);
    for (Pending& p : batch) {
        robust::Status valid = validateResidues(p.request, *basis);
        if (!valid.ok()) {
            sendStatus(*p.session, p.request.request_id, valid.code(),
                       valid.message(), p.admit_ns);
            continue;
        }
        polys.push_back(assemblePoly(*basis, p.request, 0));
        polys.push_back(assemblePoly(*basis, p.request, 1));
        live.push_back(&p);
    }
    if (live.empty())
        return;
    std::vector<
        std::pair<const rns::RnsPolynomial*, const rns::RnsPolynomial*>>
        products;
    products.reserve(live.size());
    for (size_t i = 0; i < live.size(); ++i)
        products.emplace_back(&polys[2 * i], &polys[2 * i + 1]);
    try {
        std::vector<rns::RnsPolynomial> results =
            engine_.polymulNegacyclicBatch(products, nullptr);
        coalesced_batches_.add(1);
        coalesced_requests_.add(live.size());
        for (size_t i = 0; i < live.size(); ++i) {
            Response resp;
            resp.code = robust::StatusCode::Ok;
            resp.request_id = live[i]->request.request_id;
            resp.basis = live[i]->request.basis;
            extractChannels(results[i], resp);
            respond(*live[i]->session, resp, live[i]->admit_ns);
        }
    } catch (...) {
        robust::Status s = currentExceptionStatus();
        for (Pending* p : live)
            sendStatus(*p->session, p->request.request_id, s.code(),
                       s.message(), p->admit_ns);
    }
}

void
PolymulServer::respond(Session& session, const Response& resp,
                       uint64_t admit_ns)
{
    if (admit_ns != 0)
        request_site_.hist.record(telemetry::nowNs() - admit_ns);
    std::vector<uint8_t> frame = encodeResponseFrame(resp);
    // Counted before the write: a peer that sees the response also sees
    // it in stats().
    served_.add(1);
    robust::Status s;
    {
        std::lock_guard<std::mutex> lock(session.write_mutex);
        try {
            s = session.sock.writeAll(frame.data(), frame.size(),
                                      kWriteTimeoutMs);
        } catch (const robust::StatusError& e) {
            s = e.status(); // injected net.write fault
        }
    }
    if (!s.ok())
        write_errors_.add(1);
}

void
PolymulServer::sendStatus(Session& session, uint64_t request_id,
                          robust::StatusCode code,
                          const std::string& message, uint64_t admit_ns)
{
    Response resp;
    resp.code = code;
    resp.request_id = request_id;
    resp.message = message.size() <= kMaxMessageBytes
                       ? message
                       : message.substr(0, kMaxMessageBytes);
    respond(session, resp, admit_ns);
}

PolymulServer::Stats
PolymulServer::stats() const
{
    return Stats{accepted_.value(),        sessions_rejected_.value(),
                 requests_.value(),        served_.value(),
                 shed_.value(),            deadline_misses_.value(),
                 protocol_errors_.value(), coalesced_batches_.value(),
                 coalesced_requests_.value()};
}

DrainReport
PolymulServer::stop()
{
    if (stopped_)
        return last_drain_;
    draining_.store(true, std::memory_order_release);
    if (running_.load(std::memory_order_acquire)) {
        // The accept loop notices draining_ within one poll tick, so
        // join it BEFORE closing the listener — closing an fd another
        // thread is polling is a race (and an fd-reuse hazard).
        if (accept_thread_.joinable())
            accept_thread_.join();
        listener_.closeNow();
        // Finish everything already admitted before stopping the
        // dispatchers: that is the "graceful" in graceful drain.
        {
            std::unique_lock<std::mutex> lock(queue_mutex_);
            drained_cv_.wait(lock, [&] {
                return queue_.empty() && busy_dispatchers_ == 0;
            });
        }
        stop_dispatch_.store(true, std::memory_order_release);
        queue_cv_.notify_all();
        for (std::thread& t : dispatch_threads_)
            t.join();
        dispatch_threads_.clear();
        std::vector<std::shared_ptr<Session>> sessions;
        {
            std::lock_guard<std::mutex> lock(sessions_mutex_);
            sessions.swap(sessions_);
        }
        for (auto& session : sessions) {
            session->stop.store(true, std::memory_order_release);
            // Serialized against the session thread's own closeNow()
            // and any in-flight response write.
            std::lock_guard<std::mutex> lock(session->write_mutex);
            session->sock.shutdownBoth();
        }
        for (auto& session : sessions) {
            if (session->thread.joinable())
                session->thread.join();
        }
        running_.store(false, std::memory_order_release);
    }
    DrainReport report;
    report.leased_at_drain = engine_.workspacePool().leasedCount();
    report.clean = report.leased_at_drain == 0;
    report.served = served_.value();
    report.shed = shed_.value();
    drains_.add(1);
    stopped_ = true;
    last_drain_ = report;
    return report;
}

} // namespace net
} // namespace mqx
