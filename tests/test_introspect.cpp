// Tests for the live introspection plane (src/obs/): the /metrics /stats
// /trace /health HTTP server and the sysmon-style stall watchdog.
//
// TSan builds (tools/tsan.sh) run this file too: TSan cannot follow
// fcontext switches, so every test that drives the HTTP server (whose
// handlers are ULTs) is gated out. The watchdog tests stay enabled — the
// watchdog thread racing stream progress epochs, pool depths, and the
// armed flag is exactly what TSan should look at, and tasklets run
// without a stack switch.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/metrics.hpp"
#include "core/pool.hpp"
#include "core/runtime.hpp"
#include "core/scheduler.hpp"
#include "core/stream_dir.hpp"
#include "core/ult.hpp"
#include "core/xstream.hpp"
#include "gol/gol.hpp"
#include "io/io.hpp"
#include "obs/introspect.hpp"
#include "obs/watchdog.hpp"

#if defined(__SANITIZE_THREAD__)
#define LWT_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define LWT_TSAN 1
#endif
#endif

namespace {

namespace io = lwt::io;
namespace obs = lwt::obs;
using namespace lwt::core;
using std::chrono::milliseconds;

#if !defined(LWT_TSAN)

// Issue one HTTP/1.0 GET from inside a goroutine (socket ops suspend the
// calling ULT) and return the full response read to EOF.
std::string http_get(lwt::gol::Library& lib, std::uint16_t port,
                     const std::string& target) {
    std::string response;
    lwt::gol::WaitGroup wg;
    wg.add(1);
    lib.go([&, port, target] {
        const auto deadline = Deadline::in(std::chrono::seconds(10));
        auto conn = io::connect_tcp(port, deadline);
        if (conn.ok()) {
            io::Socket sock = std::move(conn.value());
            const std::string req = "GET " + target + " HTTP/1.0\r\n\r\n";
            if (sock.write_all(req.data(), req.size(), deadline).ok()) {
                char buf[4096];
                while (true) {
                    auto n = sock.read(buf, sizeof buf, deadline);
                    if (!n.ok() || *n == 0) {
                        break;  // EOF: Connection: close semantics
                    }
                    response.append(buf, *n);
                }
            }
        }
        wg.done();
    });
    wg.wait();
    return response;
}

std::string body_of(const std::string& response) {
    const auto pos = response.find("\r\n\r\n");
    return pos == std::string::npos ? std::string() : response.substr(pos + 4);
}

// One runtime + one directly-constructed server (port 0) shared by the
// endpoint tests below. gtest runs tests in declaration order; each test
// boots its own fixture instance, so keep the server per-test.
struct ServerFixture {
    lwt::gol::Config config;
    std::unique_ptr<lwt::gol::Library> lib;
    obs::IntrospectServer server;

    ServerFixture() {
        config.num_threads = 2;
        lib = std::make_unique<lwt::gol::Library>(config);
        EXPECT_TRUE(server.start());
    }
};

// --- /metrics ----------------------------------------------------------------

TEST(IntrospectHttpTest, MetricsExpositionIsValidAndCarriesCounters) {
    MetricsRegistry::instance().counter("introspect.test.counter").inc(7);
    MetricsRegistry::instance().histogram("introspect.test_ns").record(1500);
    ServerFixture fx;
    ASSERT_NE(fx.server.port(), 0);
    const std::string resp = http_get(*fx.lib, fx.server.port(), "/metrics");
    ASSERT_NE(resp.find("HTTP/1.0 200"), std::string::npos) << resp;
    EXPECT_NE(resp.find("text/plain; version=0.0.4"), std::string::npos);

    const std::string body = body_of(resp);
    // The registry counter must appear, sanitized, with its value.
    EXPECT_NE(body.find("lwt_introspect_test_counter 7"), std::string::npos)
        << body;
    // Histograms render in ns on the log-linear ladder: 1500 lands in the
    // 32-wide bucket [1472, 1503].
    EXPECT_NE(body.find("lwt_introspect_test_ns_bucket{le=\"1503\"} 1"),
              std::string::npos)
        << body;
    EXPECT_NE(body.find("lwt_introspect_test_ns_count 1"), std::string::npos);
    // Live per-stream series sampled from the directory.
    EXPECT_NE(body.find("lwt_stream_executed{stream=\"0\""),
              std::string::npos);

    // Exposition validity: every # TYPE name is declared at most once
    // (duplicate TYPE lines are invalid Prometheus text format), and every
    // non-comment line is "name[{labels}] value".
    std::set<std::string> types;
    std::istringstream is(body);
    std::string line;
    while (std::getline(is, line)) {
        if (line.empty()) {
            continue;
        }
        if (line.rfind("# TYPE ", 0) == 0) {
            const std::string name =
                line.substr(7, line.find(' ', 7) - 7);
            EXPECT_TRUE(types.insert(name).second)
                << "duplicate TYPE for " << name;
            continue;
        }
        if (line[0] == '#') {
            continue;
        }
        const auto space = line.rfind(' ');
        ASSERT_NE(space, std::string::npos) << line;
        EXPECT_TRUE(line.rfind("lwt_", 0) == 0) << line;
        // The value parses as a number.
        EXPECT_FALSE(line.substr(space + 1).empty()) << line;
        EXPECT_NO_THROW((void)std::stod(line.substr(space + 1))) << line;
    }
    MetricsRegistry::instance().reset_values();
}

// --- /stats ------------------------------------------------------------------

TEST(IntrospectHttpTest, StatsIsBalancedJsonWithStreams) {
    ServerFixture fx;
    const std::string resp = http_get(*fx.lib, fx.server.port(), "/stats");
    ASSERT_NE(resp.find("HTTP/1.0 200"), std::string::npos);
    EXPECT_NE(resp.find("application/json"), std::string::npos);
    const std::string body = body_of(resp);
    ASSERT_FALSE(body.empty());
    EXPECT_EQ(body.front(), '{');
    EXPECT_NE(body.find("\"streams\""), std::string::npos);
    EXPECT_NE(body.find("\"reactor\""), std::string::npos);
    EXPECT_NE(body.find("\"steal\""), std::string::npos);
    // Structural check: braces and brackets balance (no nesting overflow
    // or truncation; strings in this payload never contain either).
    int braces = 0;
    int brackets = 0;
    for (char c : body) {
        braces += c == '{' ? 1 : c == '}' ? -1 : 0;
        brackets += c == '[' ? 1 : c == ']' ? -1 : 0;
        EXPECT_GE(braces, 0);
        EXPECT_GE(brackets, 0);
    }
    EXPECT_EQ(braces, 0);
    EXPECT_EQ(brackets, 0);
}

// --- /trace ------------------------------------------------------------------

TEST(IntrospectHttpTest, TraceWindowReturnsChromeJson) {
    ServerFixture fx;
    // Generate some work during the window so spans exist.
    std::atomic<bool> stop{false};
    fx.lib->go([&] {
        while (!stop.load()) {
            yield_anywhere();
        }
    });
    const std::string resp =
        http_get(*fx.lib, fx.server.port(), "/trace?ms=50");
    stop.store(true);
    ASSERT_NE(resp.find("HTTP/1.0 200"), std::string::npos) << resp;
    const std::string body = body_of(resp);
    EXPECT_NE(body.find("\"traceEvents\""), std::string::npos);
    EXPECT_EQ(body.front(), '{');
    EXPECT_EQ(body.back(), '\n');
}

// --- /health + errors --------------------------------------------------------

TEST(IntrospectHttpTest, HealthOkAndUnknownPathIs404) {
    ServerFixture fx;
    const std::string health =
        http_get(*fx.lib, fx.server.port(), "/health");
    ASSERT_NE(health.find("HTTP/1.0 200"), std::string::npos);
    EXPECT_NE(health.find("\"status\":\"ok\""), std::string::npos);

    const std::string missing =
        http_get(*fx.lib, fx.server.port(), "/nope");
    EXPECT_NE(missing.find("HTTP/1.0 404"), std::string::npos);
}

// --- env/session path --------------------------------------------------------

TEST(IntrospectSessionTest, EnvBootsServerForTheRuntimeLifetime) {
    ::setenv("LWT_INTROSPECT", "127.0.0.1:0", 1);
    {
        lwt::gol::Config c;
        c.num_threads = 2;
        lwt::gol::Library lib(c);
        const std::string addr = obs::introspect_bound_addr();
        ASSERT_FALSE(addr.empty());
        const auto colon = addr.rfind(':');
        const std::uint16_t port = static_cast<std::uint16_t>(
            std::stoi(addr.substr(colon + 1)));
        ASSERT_NE(port, 0);
        const std::string resp = http_get(lib, port, "/health");
        EXPECT_NE(resp.find("HTTP/1.0 200"), std::string::npos);
    }
    // Last session detached: the server is gone.
    EXPECT_TRUE(obs::introspect_bound_addr().empty());
    ::unsetenv("LWT_INTROSPECT");
}

TEST(IntrospectSessionTest, RejectsNonLoopbackHost) {
    ::setenv("LWT_INTROSPECT", "0.0.0.0:0", 1);
    {
        lwt::gol::Config c;
        c.num_threads = 1;
        lwt::gol::Library lib(c);
        EXPECT_TRUE(obs::introspect_bound_addr().empty());
    }
    ::unsetenv("LWT_INTROSPECT");
}

#endif  // !LWT_TSAN

// --- watchdog (tasklet-only: TSan-safe) --------------------------------------

TEST(WatchdogTest, FlagsAStalledStreamAndClearsOnProgress) {
    std::atomic<bool> release{false};
    std::vector<std::unique_ptr<DequePool>> pools;
    for (int i = 0; i < 2; ++i) {
        pools.push_back(std::make_unique<DequePool>());
    }
    Runtime rt(2, [&](unsigned rank) {
        return std::make_unique<Scheduler>(
            std::vector<Pool*>{pools[rank].get()});
    });
    auto& stalls = MetricsRegistry::instance().counter("sched.stalls");
    const std::uint64_t stalls0 = stalls.value();

    obs::Watchdog wd(100);
    // Wedge the dedicated stream (rank 1): one tasklet spins without
    // returning to the scheduler, a second stays queued so the scheduler
    // still reports work. The primary (rank 0) is manually driven and
    // must stay exempt.
    auto* hog = new Tasklet([&] {
        while (!release.load()) {
            std::this_thread::sleep_for(milliseconds(1));
        }
    });
    hog->detached = true;
    auto* queued = new Tasklet([] {});
    queued->detached = true;
    pools[1]->push(hog);
    pools[1]->push(queued);

    // Detection bound: epoch frozen for >= interval, sampled at
    // interval/2 — flag well within 2x interval; 5s is a CI-safe ceiling.
    bool flagged = false;
    for (int spin = 0; spin < 5000 && !flagged; ++spin) {
        flagged = !wd.healthy();
        std::this_thread::sleep_for(milliseconds(1));
    }
    EXPECT_TRUE(flagged);
    const obs::Watchdog::Report report = wd.report();
    EXPECT_TRUE(report.any_stalled);
    bool rank1_stalled = false;
    for (const auto& s : report.streams) {
        if (s.rank == 1) {
            rank1_stalled = s.stalled;
            EXPECT_GE(s.no_progress_ms, 100.0);
        }
        if (s.rank == 0) {
            EXPECT_FALSE(s.stalled) << "manually-driven stream flagged";
        }
    }
    EXPECT_TRUE(rank1_stalled);
    EXPECT_GE(stalls.value(), stalls0 + 1);
    // With the armed stamp, the hog shows up as the longest-running unit.
    EXPECT_GT(report.longest_running_ms, 0.0);

    // Release the hog: progress resumes, the verdict clears.
    release.store(true);
    bool cleared = false;
    for (int spin = 0; spin < 5000 && !cleared; ++spin) {
        cleared = wd.healthy();
        std::this_thread::sleep_for(milliseconds(1));
    }
    EXPECT_TRUE(cleared);
}

TEST(WatchdogTest, QuietOnAnIdleRuntime) {
    std::vector<std::unique_ptr<DequePool>> pools;
    for (int i = 0; i < 2; ++i) {
        pools.push_back(std::make_unique<DequePool>());
    }
    Runtime rt(2, [&](unsigned rank) {
        return std::make_unique<Scheduler>(
            std::vector<Pool*>{pools[rank].get()});
    });
    auto& stalls = MetricsRegistry::instance().counter("sched.stalls");
    const std::uint64_t stalls0 = stalls.value();
    obs::Watchdog wd(50);
    std::this_thread::sleep_for(milliseconds(250));
    EXPECT_TRUE(wd.healthy());
    EXPECT_EQ(stalls.value(), stalls0);
    const obs::Watchdog::Report report = wd.report();
    EXPECT_EQ(report.interval_ms, 50u);
    for (const auto& s : report.streams) {
        EXPECT_FALSE(s.stalled);
    }
}

TEST(WatchdogTest, ArmsAndDisarmsTheExecStamp) {
    // Off by default: the dispatch path must not pay for the stamp.
    EXPECT_FALSE(lwt::core::watchdog_armed());
    {
        obs::Watchdog wd(100);
        EXPECT_TRUE(lwt::core::watchdog_armed());
    }
    EXPECT_FALSE(lwt::core::watchdog_armed());
}

}  // namespace
