#include "io/io.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "arch/cpu.hpp"
#include "core/metrics.hpp"

namespace lwt::io {

namespace {

using core::IoStatus;
using core::Reactor;

int set_nonblocking(int fd) {
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
        return errno;
    }
    return 0;
}

Error error_from_wait(IoStatus s) {
    switch (s) {
        case IoStatus::kTimedOut:
            return Error::timed_out();
        case IoStatus::kCanceled:
            return Error::canceled();
        default:
            return Error::sys(EIO);
    }
}

void record_req_latency(std::uint64_t ticks) {
    static core::Histogram& hist =
        core::MetricsRegistry::instance().histogram("io.req_latency_ns");
    hist.record(core::ticks_to_ns(ticks));
}

}  // namespace

const char* Error::kind_name() const noexcept {
    switch (kind) {
        case ErrorKind::kSys:
            return "sys";
        case ErrorKind::kTimedOut:
            return "timed_out";
        case ErrorKind::kCanceled:
            return "canceled";
        case ErrorKind::kClosed:
            return "closed";
    }
    return "?";
}

std::string Error::message() const {
    if (kind == ErrorKind::kSys) {
        return std::string("sys: ") + std::strerror(code);
    }
    return kind_name();
}

// ---------------------------------------------------------------------------
// Socket

Result<Socket> Socket::adopt(int fd) {
    if (fd < 0) {
        return Error::sys(EBADF);
    }
    if (const int err = set_nonblocking(fd)) {
        return Error::sys(err);
    }
    return Socket(fd);
}

Result<std::pair<Socket, Socket>> Socket::pair() {
    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0,
                     fds) != 0) {
        return Error::sys(errno);
    }
    return std::make_pair(Socket(fds[0]), Socket(fds[1]));
}

void Socket::close() noexcept {
    if (fd_ >= 0) {
        Reactor::global().forget(fd_);
        ::close(fd_);
        fd_ = -1;
    }
}

Result<std::size_t> Socket::read(void* buf, std::size_t len, Deadline d) {
    if (fd_ < 0) {
        return Error::sys(EBADF);
    }
    for (;;) {
        const ssize_t n = ::recv(fd_, buf, len, 0);
        if (n >= 0) {
            return static_cast<std::size_t>(n);  // n == 0: orderly EOF
        }
        if (errno == EINTR) {
            continue;
        }
        if (errno != EAGAIN && errno != EWOULDBLOCK) {
            return Error::sys(errno);
        }
        const IoStatus s = Reactor::global().wait_readable(fd_, d);
        if (s != IoStatus::kReady) {
            return error_from_wait(s);
        }
    }
}

Result<std::size_t> Socket::write(const void* buf, std::size_t len,
                                  Deadline d) {
    if (fd_ < 0) {
        return Error::sys(EBADF);
    }
    for (;;) {
        const ssize_t n = ::send(fd_, buf, len, MSG_NOSIGNAL);
        if (n >= 0) {
            return static_cast<std::size_t>(n);
        }
        if (errno == EINTR) {
            continue;
        }
        if (errno != EAGAIN && errno != EWOULDBLOCK) {
            return Error::sys(errno);
        }
        const IoStatus s = Reactor::global().wait_writable(fd_, d);
        if (s != IoStatus::kReady) {
            return error_from_wait(s);
        }
    }
}

Result<void> Socket::read_exact(void* buf, std::size_t len, Deadline d) {
    auto* p = static_cast<std::byte*>(buf);
    while (len > 0) {
        Result<std::size_t> r = read(p, len, d);
        if (!r) {
            return r.error();
        }
        if (*r == 0) {
            return Error::closed();
        }
        p += *r;
        len -= *r;
    }
    return {};
}

Result<void> Socket::write_all(const void* buf, std::size_t len, Deadline d) {
    const auto* p = static_cast<const std::byte*>(buf);
    while (len > 0) {
        Result<std::size_t> r = write(p, len, d);
        if (!r) {
            return r.error();
        }
        p += *r;
        len -= *r;
    }
    return {};
}

// ---------------------------------------------------------------------------
// Listener / connect

Result<Listener> Listener::listen(std::uint16_t port, int backlog) {
    const int fd = ::socket(AF_INET,
                            SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (fd < 0) {
        return Error::sys(errno);
    }
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    ::sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::bind(fd, reinterpret_cast<::sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::listen(fd, backlog) != 0) {
        const int err = errno;
        ::close(fd);
        return Error::sys(err);
    }
    ::socklen_t alen = sizeof(addr);
    if (::getsockname(fd, reinterpret_cast<::sockaddr*>(&addr), &alen) != 0) {
        const int err = errno;
        ::close(fd);
        return Error::sys(err);
    }
    Listener l;
    l.fd_ = fd;
    l.port_ = ntohs(addr.sin_port);
    return l;
}

void Listener::close() noexcept {
    if (fd_ >= 0) {
        Reactor::global().forget(fd_);
        ::close(fd_);
        fd_ = -1;
        port_ = 0;
    }
}

Result<Socket> Listener::accept(Deadline d) {
    if (fd_ < 0) {
        return Error::sys(EBADF);
    }
    for (;;) {
        const int cfd = ::accept4(fd_, nullptr, nullptr,
                                  SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (cfd >= 0) {
            return Socket(cfd);
        }
        if (errno == EINTR || errno == ECONNABORTED) {
            continue;
        }
        if (errno != EAGAIN && errno != EWOULDBLOCK) {
            return Error::sys(errno);
        }
        const IoStatus s = Reactor::global().wait_readable(fd_, d);
        if (s != IoStatus::kReady) {
            return error_from_wait(s);
        }
    }
}

Result<Socket> connect_tcp(std::uint16_t port, Deadline d) {
    const int fd = ::socket(AF_INET,
                            SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (fd < 0) {
        return Error::sys(errno);
    }
    Socket s(fd);
    ::sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd, reinterpret_cast<::sockaddr*>(&addr), sizeof(addr)) ==
        0) {
        return s;
    }
    if (errno != EINPROGRESS) {
        return Error::sys(errno);
    }
    // Non-blocking connect completes when the fd turns writable; the
    // verdict is in SO_ERROR.
    const IoStatus st = Reactor::global().wait_writable(fd, d);
    if (st != IoStatus::kReady) {
        return error_from_wait(st);
    }
    int err = 0;
    ::socklen_t elen = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &elen) != 0) {
        return Error::sys(errno);
    }
    if (err != 0) {
        return Error::sys(err);
    }
    return s;
}

// ---------------------------------------------------------------------------
// sleep / request helpers

void sleep_until(Deadline d) {
    if (d.has_value()) {
        Reactor::global().sleep_until(d);
    }
}

void sleep_for(std::chrono::nanoseconds d) {
    if (d.count() > 0) {
        Reactor::global().sleep_until(Deadline::in(d));
    }
}

Result<void> request_reply(Socket& s, const void* out, void* in,
                           std::size_t len, Deadline d) {
    const bool record = core::Metrics::instance().enabled();
    const std::uint64_t start = record ? arch::rdtsc() : 0;
    if (Result<void> w = s.write_all(out, len, d); !w) {
        return w;
    }
    if (Result<void> r = s.read_exact(in, len, d); !r) {
        return r;
    }
    if (record) {
        record_req_latency(arch::rdtsc() - start);
    }
    return {};
}

}  // namespace lwt::io
