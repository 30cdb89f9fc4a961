// introspect.hpp — live runtime introspection over HTTP.
//
// A tiny HTTP/1.0 server that runs *on the runtime it observes*: the
// accept loop and every connection handler are detached ULTs scheduled
// like any other work, and all socket I/O suspends through PR 7's
// reactor — the introspection plane dogfoods glt::io instead of owning
// threads. Endpoints:
//
//   /metrics     Prometheus text exposition of the full MetricsRegistry
//                plus live per-stream series (core/observability.hpp)
//   /stats       JSON: per-stream SchedStats + steal tiers + pool depth,
//                reactor counters, watchdog verdicts
//   /trace?ms=N  arm a bounded trace window (1..10000 ms), stream back
//                the Chrome/Perfetto JSON inline
//   /health      200 when no stream is stalled, 503 otherwise
//
// Enabled by LWT_INTROSPECT=127.0.0.1:PORT (also ":PORT" or "PORT"; port
// 0 picks a free one — read it back with introspect_bound_addr()).
// Security: io::Listener only binds loopback, and arch::Settings treats
// any LWT_INTROSPECT host other than 127.0.0.1/localhost as malformed
// (warns, then falls through to glt::init's introspect_addr) — the
// endpoints expose internals and must never face a network.
//
// The companion stall watchdog (watchdog.hpp) is armed independently via
// LWT_WATCHDOG_MS=N. Both are arch::Settings values, so glt::init's
// introspect_addr / watchdog_ms stand in when the variables are unset.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "obs/watchdog.hpp"

namespace lwt::obs {

/// The HTTP server itself. Most users never touch this class — they set
/// LWT_INTROSPECT and let the personality's IntrospectSession manage one
/// process-wide instance — but tests construct it directly (port 0).
/// start() seeds the acceptor ULT into a live stream's pool, so at least
/// one XStream must exist (StreamDirectory non-empty).
class IntrospectServer {
  public:
    explicit IntrospectServer(std::uint16_t port = 0) : port_(port) {}
    ~IntrospectServer() { stop(); }
    IntrospectServer(const IntrospectServer&) = delete;
    IntrospectServer& operator=(const IntrospectServer&) = delete;

    /// Bind + listen + spawn the acceptor ULT. False (with a stderr note)
    /// when the port is taken or no stream can host the acceptor.
    bool start();

    /// Close the listener and every open connection (parked handlers fail
    /// with Error::canceled) and wait — bounded — for the server ULTs to
    /// drain. Returns false if they did not drain in time (the shared
    /// state keeps any stragglers memory-safe; they finish during stream
    /// teardown at the latest).
    bool stop();

    [[nodiscard]] bool running() const noexcept;
    /// Actual bound port (resolves port 0) — valid after start().
    [[nodiscard]] std::uint16_t port() const noexcept;
    /// "127.0.0.1:PORT", or "" when not running.
    [[nodiscard]] std::string bound_addr() const;

  private:
    struct State;
    std::uint16_t port_;
    std::shared_ptr<State> state_;
};

/// Refcounted RAII handle, one per runtime object (mirrors
/// core::ObservabilitySession): the first live session reads
/// LWT_INTROSPECT / LWT_WATCHDOG_MS from arch::Settings (resolved when
/// the runtime's boot began) and starts the process-wide server +
/// watchdog; the last
/// detach stops them. Personalities engage it at the END of library
/// construction (streams must exist to host the acceptor) and reset it at
/// the TOP of destruction (handlers drain while streams still run); when
/// an inner runtime of several detaches, the server restarts so the
/// acceptor re-homes onto a surviving stream.
class IntrospectSession {
  public:
    IntrospectSession();
    ~IntrospectSession();
    IntrospectSession(const IntrospectSession&) = delete;
    IntrospectSession& operator=(const IntrospectSession&) = delete;
};

/// Address the session-managed server is serving on ("127.0.0.1:PORT"),
/// or "" when introspection is off.
std::string introspect_bound_addr();

/// The session-managed watchdog, or nullptr when off. The pointer is
/// stable while at least one session is alive.
Watchdog* active_watchdog();

}  // namespace lwt::obs
