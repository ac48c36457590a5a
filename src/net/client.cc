/**
 * @file
 * Client implementation: reconnecting transport + retry-with-backoff
 * policy gated on robust::statusRetryable.
 */
#include "net/client.h"

#include <chrono>
#include <thread>

#include "rns/rns.h"
#include "telemetry/telemetry.h"

namespace mqx {
namespace net {

robust::Status
Client::callOnce(const std::vector<uint8_t>& frame, uint64_t expected_id,
                 Response& out)
{
    if (!sock_.valid()) {
        robust::Status s =
            connectLoopback(options_.port, options_.io_timeout_ms, sock_);
        if (!s.ok())
            return s;
    }
    robust::Status s = sock_.writeAll(frame.data(), frame.size(),
                                      options_.io_timeout_ms);
    if (!s.ok()) {
        sock_.closeNow();
        return s;
    }
    FrameReader reader;
    uint8_t buf[8192];
    const uint64_t start_ns = telemetry::nowNs();
    const uint64_t budget_ns =
        static_cast<uint64_t>(options_.io_timeout_ms) * 1000000ull;
    std::vector<uint8_t> body;
    for (;;) {
        if (telemetry::nowNs() - start_ns > budget_ns) {
            sock_.closeNow();
            return robust::Status(robust::StatusCode::DeadlineExceeded,
                                  "client: response timed out");
        }
        IoResult io = sock_.readSome(buf, sizeof(buf), 20);
        if (!io.status.ok() || io.eof) {
            sock_.closeNow();
            return io.status.ok()
                       ? robust::Status(
                             robust::StatusCode::ResourceExhausted,
                             "client: connection closed by server")
                       : io.status;
        }
        if (io.timed_out)
            continue;
        reader.feed(buf, io.bytes);
        for (;;) {
            FrameReader::Next next = reader.next(body);
            if (next == FrameReader::Next::NeedMore)
                break;
            if (next == FrameReader::Next::Error) {
                sock_.closeNow();
                return reader.error();
            }
            robust::Status decoded =
                decodeResponse(body.data(), body.size(), out);
            if (!decoded.ok()) {
                sock_.closeNow();
                return decoded;
            }
            // A stale response (an earlier attempt that timed out) is
            // discarded; id 0 marks a session-level protocol error
            // verdict, which is for us no matter what we sent.
            if (out.request_id == expected_id || out.request_id == 0)
                return decoded;
        }
    }
}

void
Client::backoff(int attempt)
{
    uint64_t delay_us = options_.backoff_base_us
                        << (attempt < 20 ? attempt : 20);
    if (delay_us > options_.backoff_cap_us)
        delay_us = options_.backoff_cap_us;
    // Jitter in [0.5, 1.5): decorrelates concurrent clients' retry
    // storms while staying deterministic per (seed, attempt).
    delay_us = delay_us / 2 + rng_.next() % (delay_us | 1);
    backoff_us_.add(delay_us);
    std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
}

robust::Status
Client::call(const Request& req, Response& out)
{
    const std::vector<uint8_t> frame = encodeRequestFrame(req);
    robust::Status last;
    for (int attempt = 0; attempt < options_.max_attempts; ++attempt) {
        if (attempt > 0) {
            retries_.add(1);
            backoff(attempt - 1);
        }
        last = callOnce(frame, req.request_id, out);
        if (!last.ok()) {
            // Transport failure: the connection is gone; whether the
            // op ran is unknown. Ops here are pure (no server-side
            // state mutates), so resending is always safe — but a
            // wire-level InvalidArgument (our frame is broken) or
            // timeout (budget spent) will not improve on resend.
            if (last.code() == robust::StatusCode::InvalidArgument ||
                last.code() == robust::StatusCode::DeadlineExceeded)
                return last;
            continue;
        }
        if (out.code == robust::StatusCode::Ok ||
            !robust::statusRetryable(out.code))
            return last;
        // Retryable server-side status (backpressure shed / injected
        // fault): back off and try again.
    }
    return last;
}

Request
Client::makePolymul(const rns::RnsPolynomial& a, const rns::RnsPolynomial& b,
                    const BasisSpec& spec, uint64_t request_id,
                    uint64_t deadline_ns)
{
    checkArg(a.basis().size() == spec.channels &&
                 b.basis().size() == spec.channels && a.n() == b.n(),
             "makePolymul: operand shape mismatch");
    Request req;
    req.op = OpKind::Polymul;
    req.request_id = request_id;
    req.deadline_ns = deadline_ns;
    req.basis = spec;
    req.n = static_cast<uint32_t>(a.n());
    req.operands.resize(2 * spec.channels);
    for (uint32_t c = 0; c < spec.channels; ++c) {
        req.operands[c] = a.channel(c);
        req.operands[spec.channels + c] = b.channel(c);
    }
    return req;
}

} // namespace net
} // namespace mqx
