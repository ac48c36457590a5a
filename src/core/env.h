/**
 * @file
 * Hardened environment-variable parsing (ISSUE 9 satellite).
 *
 * Tuning knobs like MQX_THREADS, MQX_SERVER_* and MQX_TELEMETRY are
 * read from the environment in process-wide one-shot initializers, so a
 * malformed value must degrade to the built-in default — never throw from a
 * static initializer, never silently clamp garbage to a surprising
 * number. envUint rejects empty strings, trailing garbage ("4x"),
 * negative values (strtoull would silently wrap them to huge unsigned
 * numbers), overflow, and out-of-policy values, falling back to
 * @p fallback and noting the event once per variable in telemetry
 * (counter `env.fallback.<VAR>`) so operators can see a typoed knob in
 * `snapshotJson()` instead of debugging a mystery thread count.
 */
#pragma once

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <set>
#include <string>

#include "telemetry/telemetry.h"

namespace mqx {
namespace core {

namespace detail {

/** Bump `env.fallback.<VAR>` once per variable per process. */
inline void
noteEnvFallback(const char* var)
{
    static std::mutex mu;
    static auto& noted = *new std::set<std::string>();
    std::lock_guard<std::mutex> lock(mu);
    if (noted.insert(var).second)
        telemetry::counter(std::string("env.fallback.") + var).add(1);
}

} // namespace detail

/**
 * Parse @p var as an unsigned integer in [@p min_ok, @p max_ok].
 * Unset/empty returns @p fallback silently; any malformed or
 * out-of-range value returns @p fallback with a one-time telemetry
 * note.
 */
inline uint64_t
envUint(const char* var, uint64_t fallback, uint64_t min_ok = 0,
        uint64_t max_ok = UINT64_MAX)
{
    const char* env = std::getenv(var);
    if (!env || !*env)
        return fallback;
    // strtoull accepts a leading '-' and wraps the value; reject it.
    if (std::strchr(env, '-') != nullptr) {
        detail::noteEnvFallback(var);
        return fallback;
    }
    errno = 0;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(env, &end, 10);
    if (end == env || *end != '\0' || errno == ERANGE || v < min_ok ||
        v > max_ok) {
        detail::noteEnvFallback(var);
        return fallback;
    }
    return static_cast<uint64_t>(v);
}

/**
 * Parse @p var as an on/off switch: "1", "on" or "ON" is true; "0",
 * "off" or "OFF" is false. Unset/empty returns @p fallback silently;
 * any other value returns @p fallback with a one-time telemetry note.
 */
inline bool
envSwitch(const char* var, bool fallback)
{
    const char* env = std::getenv(var);
    if (!env || !*env)
        return fallback;
    for (const char* on : {"1", "on", "ON"}) {
        if (std::strcmp(env, on) == 0)
            return true;
    }
    for (const char* off : {"0", "off", "OFF"}) {
        if (std::strcmp(env, off) == 0)
            return false;
    }
    detail::noteEnvFallback(var);
    return fallback;
}

} // namespace core
} // namespace mqx
