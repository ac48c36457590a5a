/**
 * @file
 * Overload-resilient TCP polymul service (ISSUE 10 tentpole; ROADMAP
 * item 1: "serving kernels to millions of users").
 *
 * Architecture: one accept thread hands each connection to its own
 * session thread (bounded by max_sessions; overflow connections get an
 * immediate ResourceExhausted response and a close). Session threads
 * parse frames and ADMIT requests into one bounded queue — the
 * backpressure point: a full queue sheds the request immediately with
 * ResourceExhausted rather than queueing unboundedly, so p99 latency
 * of accepted work stays bounded at any offered load. Dispatcher
 * threads drain the queue, coalescing compatible in-flight polymul
 * requests (same basis/n, no deadline) into one
 * Engine::polymulNegacyclicBatch call — the batch-throughput path the
 * paper's kernels want — while deadline-bearing requests run
 * individually under their own CancelToken.
 *
 * Deadline propagation: a request's wire deadline_ns becomes a
 * CancelToken at ADMISSION, so time spent queued counts against the
 * budget; the token is handed to every Engine op and a blown budget
 * aborts between NTT stages with all workspace leases released
 * (returned as DeadlineExceeded).
 *
 * Graceful drain: stop() rejects new connections and new admissions,
 * finishes everything already admitted, then verifies the workspace
 * pool's leasedCount() == 0 — the invariant the chaos suite asserts
 * after every seeded torn-frame / disconnect / stall run.
 */
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "net/socket.h"
#include "net/wire.h"
#include "robust/cancel.h"
#include "telemetry/telemetry.h"

namespace mqx {
namespace net {

/**
 * Service tuning. Every knob has an MQX_SERVER_* environment override,
 * parsed through core/env.h envUint (fromEnv()): garbage or
 * out-of-policy values fall back to these defaults with a one-time
 * telemetry note, never a throw or a silent clamp.
 */
struct ServerOptions {
    /** TCP port on 127.0.0.1; 0 = kernel-assigned (read via port()). */
    uint16_t port = 0;
    /** Admission queue depth; overflow sheds with ResourceExhausted. */
    size_t queue_depth = 64;
    /** Concurrent session cap; overflow connections are rejected. */
    size_t max_sessions = 32;
    /** How long a dispatcher waits for coalescable requests (us). */
    uint64_t coalesce_window_us = 200;
    /** Idle session timeout (slow-loris guard), ms. */
    uint64_t idle_timeout_ms = 5000;
    /** Dispatcher thread count. */
    size_t dispatchers = 2;
    /** Engine construction options (threads, backend, verify, pool cap). */
    engine::EngineOptions engine;

    /** Defaults overridden by MQX_SERVER_PORT / _QUEUE_DEPTH /
     *  _MAX_SESSIONS / _COALESCE_WINDOW_US / _IDLE_TIMEOUT_MS /
     *  _DISPATCHERS (hardened envUint parsing). */
    static ServerOptions fromEnv();
};

/** What stop() observed while draining. */
struct DrainReport {
    /** queue empty, all dispatchers idle, leasedCount() == 0. */
    bool clean = false;
    /** Workspace leases still outstanding at drain end (0 if clean). */
    size_t leased_at_drain = 0;
    /** Requests completed (any status) over the server's lifetime. */
    uint64_t served = 0;
    /** Requests shed with ResourceExhausted (queue/backlog overflow). */
    uint64_t shed = 0;
};

class PolymulServer
{
  public:
    explicit PolymulServer(ServerOptions options = ServerOptions());
    ~PolymulServer();

    PolymulServer(const PolymulServer&) = delete;
    PolymulServer& operator=(const PolymulServer&) = delete;

    /** Bind, listen, and spin up accept/dispatcher threads. */
    robust::Status start();

    /** Graceful drain; idempotent (second call reports the first's
     *  outcome). Safe to call on a never-started server. */
    DrainReport stop();

    /** Bound port (valid after start()). */
    uint16_t port() const { return listener_.port(); }

    bool running() const { return running_.load(std::memory_order_acquire); }

    engine::Engine& engine() { return engine_; }

    /** A view over the server's telemetry counters (see counters below). */
    struct Stats {
        uint64_t accepted = 0;          ///< connections accepted
        uint64_t sessions_rejected = 0; ///< connections over max_sessions
        uint64_t requests = 0;          ///< frames decoded into requests
        uint64_t served = 0;            ///< responses sent (any status)
        uint64_t shed = 0;              ///< ResourceExhausted admissions
        uint64_t deadline_misses = 0;   ///< DeadlineExceeded responses
        uint64_t protocol_errors = 0;   ///< malformed frames/requests
        uint64_t coalesced_batches = 0; ///< batches of size >= 2
        uint64_t coalesced_requests = 0;///< requests served via a batch
    };
    Stats stats() const;

  private:
    struct Session;

    /** One admitted request: everything a dispatcher needs. */
    struct Pending {
        std::shared_ptr<Session> session;
        Request request;
        robust::CancelToken token; ///< deadline-armed iff has_token
        bool has_token = false;
        uint64_t admit_ns = 0;
    };

    void acceptLoop();
    void sessionLoop(std::shared_ptr<Session> session);
    void dispatchLoop();

    /** Session thread → queue. False = shed (queue full or draining). */
    bool admit(Pending&& pending);

    void execute(std::vector<Pending>& batch);
    void executeOne(Pending& pending);
    Response runEngineOp(Pending& pending);
    /** Write @p resp. For an admitted request, @p admit_ns is when it
     *  was admitted: its latency goes into net.request first. */
    void respond(Session& session, const Response& resp,
                 uint64_t admit_ns = 0);
    void sendStatus(Session& session, uint64_t request_id,
                    robust::StatusCode code, const std::string& message,
                    uint64_t admit_ns = 0);

    std::shared_ptr<rns::RnsBasis> basisFor(const BasisSpec& spec);

    ServerOptions options_;
    engine::Engine engine_;
    ListenSocket listener_;

    std::atomic<bool> running_{false};
    std::atomic<bool> draining_{false};
    std::atomic<bool> stop_dispatch_{false};

    std::thread accept_thread_;
    std::vector<std::thread> dispatch_threads_;

    std::mutex sessions_mutex_;
    std::vector<std::shared_ptr<Session>> sessions_;

    std::mutex queue_mutex_;
    std::condition_variable queue_cv_;   ///< work available
    std::condition_variable drained_cv_; ///< queue empty + dispatchers idle
    std::deque<Pending> queue_;
    size_t busy_dispatchers_ = 0;

    std::mutex basis_mutex_;
    std::map<std::tuple<uint32_t, uint32_t, uint32_t>,
             std::shared_ptr<rns::RnsBasis>>
        basis_cache_;

    // One telemetry counter per event, each bumped once and, for
    // events a response reports, before that response is written.
    // Stats reads the first nine; net.coalesced counts the requests
    // served through a coalesced batch.
    telemetry::InstanceCounter accepted_{"net.accepted"};
    telemetry::InstanceCounter sessions_rejected_{"net.sessions_rejected"};
    telemetry::InstanceCounter requests_{"net.requests"};
    telemetry::InstanceCounter served_{"net.served"};
    telemetry::InstanceCounter shed_{"net.shed"};
    telemetry::InstanceCounter deadline_misses_{"net.deadline_misses"};
    telemetry::InstanceCounter protocol_errors_{"net.protocol_errors"};
    telemetry::InstanceCounter coalesced_batches_{"net.coalesced_batches"};
    telemetry::InstanceCounter coalesced_requests_{"net.coalesced"};
    telemetry::InstanceCounter accept_faults_{"net.accept_faults"};
    telemetry::InstanceCounter accept_errors_{"net.accept_errors"};
    telemetry::InstanceCounter idle_closed_{"net.idle_closed"};
    telemetry::InstanceCounter write_errors_{"net.write_errors"};
    telemetry::InstanceCounter drains_{"net.drains"};
    telemetry::SpanSite& request_site_ = telemetry::spanSite("net.request");

    bool stopped_ = false;
    DrainReport last_drain_;
};

} // namespace net
} // namespace mqx
