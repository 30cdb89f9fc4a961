// io.hpp — the typed async I/O surface over core::Reactor.
//
// Every operation here is synchronous in shape but suspending in effect:
// the fd is non-blocking, the call loops syscall -> EAGAIN ->
// Reactor::wait_*, and while the caller is parked its execution stream
// keeps running other units. The same code therefore works from a ULT
// (suspends), an attached main thread (drains its stream), or a plain OS
// thread (parks) — the SyncBlocker degradation matrix (docs/sync.md).
//
// Errors are values, not errno side-channels: `Result<T>` is an
// expected-style sum of T and a typed Error (kind + errno), so timeouts
// and peer-closes are ordinary branches instead of sentinel returns.
// `Socket`/`Listener` are RAII move-only fd owners whose close() first
// cancels any parked reactor waiters (they fail with Error::canceled)
// before releasing the descriptor.
//
// Per-request latency: when metrics are on, request/response helpers feed
// the "io.req_latency_ns" registry histogram (bench/net_echo.cpp).
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>

#include "core/reactor.hpp"

namespace lwt::io {

using core::Deadline;

/// What went wrong, as a branchable value.
enum class ErrorKind : std::uint8_t {
    kSys,       ///< OS error; `code` holds errno
    kTimedOut,  ///< Deadline expired
    kCanceled,  ///< wait canceled (fd closed/forgotten under the waiter)
    kClosed,    ///< orderly peer close (EOF) where data was required
};

struct Error {
    ErrorKind kind = ErrorKind::kSys;
    int code = 0;  ///< errno when kind == kSys

    [[nodiscard]] static Error sys(int err) noexcept {
        return Error{ErrorKind::kSys, err};
    }
    [[nodiscard]] static Error timed_out() noexcept {
        return Error{ErrorKind::kTimedOut, 0};
    }
    [[nodiscard]] static Error canceled() noexcept {
        return Error{ErrorKind::kCanceled, 0};
    }
    [[nodiscard]] static Error closed() noexcept {
        return Error{ErrorKind::kClosed, 0};
    }

    [[nodiscard]] const char* kind_name() const noexcept;
    [[nodiscard]] std::string message() const;
};

/// Minimal expected<T, Error>. (The toolchain baseline predates
/// std::expected; this is the narrow slice the io surface needs.)
template <typename T>
class [[nodiscard]] Result {
  public:
    Result(T value) : has_(true) { new (&storage_.value) T(std::move(value)); }
    Result(Error e) : has_(false) { storage_.error = e; }
    Result(Result&& o) noexcept : has_(o.has_) {
        if (has_) {
            new (&storage_.value) T(std::move(o.storage_.value));
        } else {
            storage_.error = o.storage_.error;
        }
    }
    Result(const Result&) = delete;
    Result& operator=(const Result&) = delete;
    Result& operator=(Result&&) = delete;
    ~Result() {
        if (has_) {
            storage_.value.~T();
        }
    }

    [[nodiscard]] bool ok() const noexcept { return has_; }
    explicit operator bool() const noexcept { return has_; }

    [[nodiscard]] T& value() noexcept { return storage_.value; }
    [[nodiscard]] const T& value() const noexcept { return storage_.value; }
    [[nodiscard]] T& operator*() noexcept { return storage_.value; }
    [[nodiscard]] Error error() const noexcept {
        return has_ ? Error{} : storage_.error;
    }

    [[nodiscard]] bool timed_out() const noexcept {
        return !has_ && storage_.error.kind == ErrorKind::kTimedOut;
    }

  private:
    union Storage {
        Storage() noexcept : error{} {}
        ~Storage() {}
        T value;
        Error error;
    } storage_;
    bool has_;
};

template <>
class [[nodiscard]] Result<void> {
  public:
    Result() : has_(true) {}
    Result(Error e) : has_(false), error_(e) {}

    [[nodiscard]] bool ok() const noexcept { return has_; }
    explicit operator bool() const noexcept { return has_; }
    [[nodiscard]] Error error() const noexcept {
        return has_ ? Error{} : error_;
    }
    [[nodiscard]] bool timed_out() const noexcept {
        return !has_ && error_.kind == ErrorKind::kTimedOut;
    }

  private:
    bool has_;
    Error error_{};
};

/// RAII non-blocking stream socket (TCP or socketpair end). Move-only;
/// close() (and the destructor) cancels parked reactor waiters first.
class Socket {
  public:
    Socket() noexcept = default;
    ~Socket() { close(); }
    Socket(Socket&& o) noexcept : fd_(o.fd_) { o.fd_ = -1; }
    Socket& operator=(Socket&& o) noexcept {
        if (this != &o) {
            close();
            fd_ = o.fd_;
            o.fd_ = -1;
        }
        return *this;
    }
    Socket(const Socket&) = delete;
    Socket& operator=(const Socket&) = delete;

    /// Take ownership of an existing fd and make it non-blocking.
    [[nodiscard]] static Result<Socket> adopt(int fd);

    /// A connected pair of local stream sockets (AF_UNIX socketpair) —
    /// the portable fixture for readiness tests.
    [[nodiscard]] static Result<std::pair<Socket, Socket>> pair();

    [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
    [[nodiscard]] int fd() const noexcept { return fd_; }

    /// One receive: >0 bytes, or 0 at orderly EOF, suspending until the
    /// fd is readable. Partial reads are normal; see read_exact.
    Result<std::size_t> read(void* buf, std::size_t len, Deadline d = {});

    /// One send (may be partial), suspending until writable.
    Result<std::size_t> write(const void* buf, std::size_t len,
                              Deadline d = {});

    /// Loop read until exactly `len` bytes arrived (EOF mid-message is
    /// Error::closed) / loop write until all `len` bytes left.
    Result<void> read_exact(void* buf, std::size_t len, Deadline d = {});
    Result<void> write_all(const void* buf, std::size_t len, Deadline d = {});

    /// Cancel parked waiters (they fail kCanceled) and close the fd.
    void close() noexcept;

    /// Release ownership without closing.
    int release() noexcept {
        int fd = fd_;
        fd_ = -1;
        return fd;
    }

  private:
    friend class Listener;
    friend Result<Socket> connect_tcp(std::uint16_t, Deadline);
    explicit Socket(int fd) noexcept : fd_(fd) {}
    int fd_ = -1;
};

/// RAII listening TCP socket bound to loopback.
class Listener {
  public:
    Listener() noexcept = default;
    ~Listener() { close(); }
    Listener(Listener&& o) noexcept : fd_(o.fd_), port_(o.port_) {
        o.fd_ = -1;
        o.port_ = 0;
    }
    Listener& operator=(Listener&& o) noexcept {
        if (this != &o) {
            close();
            fd_ = o.fd_;
            port_ = o.port_;
            o.fd_ = -1;
            o.port_ = 0;
        }
        return *this;
    }
    Listener(const Listener&) = delete;
    Listener& operator=(const Listener&) = delete;

    /// Listen on 127.0.0.1:`port` (0 picks a free port — read it back
    /// with port()).
    [[nodiscard]] static Result<Listener> listen(std::uint16_t port = 0,
                                                 int backlog = 4096);

    /// Accept one connection, suspending until one is pending.
    Result<Socket> accept(Deadline d = {});

    [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
    [[nodiscard]] int fd() const noexcept { return fd_; }
    [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

    void close() noexcept;

  private:
    int fd_ = -1;
    std::uint16_t port_ = 0;
};

/// Connect to 127.0.0.1:`port`, suspending during the handshake.
Result<Socket> connect_tcp(std::uint16_t port, Deadline d = {});

/// Park the calling context on the reactor timer wheel. From a ULT the
/// stream keeps running other units — this is the suspending sleep every
/// personality lacked (a blocking ::sleep stalls the whole stream).
void sleep_for(std::chrono::nanoseconds d);
void sleep_until(Deadline d);

/// Echo-style request/response helper: write_all(payload) then
/// read_exact(payload-sized reply), recording the round trip into the
/// "io.req_latency_ns" histogram when metrics are enabled.
Result<void> request_reply(Socket& s, const void* out, void* in,
                           std::size_t len, Deadline d = {});

}  // namespace lwt::io
