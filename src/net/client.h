/**
 * @file
 * In-process client for the polymul service (ISSUE 10 tentpole).
 *
 * call() sends one request frame and waits for the matching response,
 * retrying ONLY retryable outcomes (robust::statusRetryable — i.e.
 * ResourceExhausted backpressure sheds and injected test faults — plus
 * transport failures, which always reconnect-and-retry) under jittered
 * exponential backoff. Non-retryable codes (InvalidArgument,
 * DeadlineExceeded, DataCorruption, Internal) return immediately:
 * resending a request whose budget is gone or whose bytes are
 * malformed only amplifies an overload.
 *
 * Backoff: attempt k sleeps min(cap, base << k) scaled by a seeded
 * jitter in [0.5, 1.5) — deterministic per (seed, attempt), so chaos
 * tests replay identical retry schedules while concurrent clients with
 * different seeds still decorrelate their retry storms.
 */
#pragma once

#include <cstdint>

#include "bench_util/rng.h"
#include "net/socket.h"
#include "net/wire.h"
#include "telemetry/telemetry.h"

namespace mqx {
namespace rns {
class RnsPolynomial;
}

namespace net {

struct ClientOptions {
    /** Server port on 127.0.0.1 (required). */
    uint16_t port = 0;
    /** Per-read/-write poll budget. */
    int io_timeout_ms = 5000;
    /** Total tries per call() (first attempt + retries). */
    int max_attempts = 4;
    uint64_t backoff_base_us = 200;
    uint64_t backoff_cap_us = 50000;
    /** Seed for the jitter stream (vary per client instance). */
    uint64_t jitter_seed = 1;
};

class Client
{
  public:
    explicit Client(ClientOptions options)
        : options_(options), rng_(options.jitter_seed)
    {
    }

    Client(const Client&) = delete;
    Client& operator=(const Client&) = delete;

    /**
     * Send @p req, fill @p out with the server's response. The
     * returned status is the transport verdict of the LAST attempt
     * (OK means @p out holds a decoded response — whose code may
     * still be any server-side status).
     */
    robust::Status call(const Request& req, Response& out);

    /** Retries performed across all call()s (tests/bench). */
    uint64_t retries() const { return retries_.value(); }

    /** Drop the connection (next call reconnects). */
    void
    disconnect()
    {
        sock_.closeNow();
    }

    // -- Request builders ------------------------------------------------

    /** Polymul request from two same-basis Coeff polynomials. */
    static Request makePolymul(const rns::RnsPolynomial& a,
                               const rns::RnsPolynomial& b,
                               const BasisSpec& spec, uint64_t request_id,
                               uint64_t deadline_ns = 0);

  private:
    /** One wire round-trip; non-OK status = transport failure. Skips
     *  stale responses whose request_id matches neither @p expected_id
     *  nor 0 (protocol-error responses carry id 0). */
    robust::Status callOnce(const std::vector<uint8_t>& frame,
                            uint64_t expected_id, Response& out);
    void backoff(int attempt);

    ClientOptions options_;
    Socket sock_;
    SplitMix64 rng_;
    telemetry::InstanceCounter retries_{"net.client_retries"};
    telemetry::InstanceCounter backoff_us_{"net.client_backoff_us"};
};

} // namespace net
} // namespace mqx
