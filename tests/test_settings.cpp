// Tests for arch::Settings: every LWT_* runtime variable resolves as
// "environment, then the glt::init default, then the built-in", is read
// at each runtime boot, and goes through one parser (booleans, whole-string
// numbers, case-insensitive enums; malformed values warn once and keep the
// next source).
//
// The table boots gol runtimes: gol never pins threads, so the bind rows
// cannot pin this test process to one CPU.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "arch/audit.hpp"
#include "arch/cpu.hpp"
#include "arch/settings.hpp"
#include "arch/stack.hpp"
#include "arch/topology.hpp"
#include "core/runtime.hpp"
#include "glt/glt.hpp"

// The introspection server runs its acceptor as a ULT; TSan cannot follow
// ULT stack switches, so the TSan lane skips that row.
#if defined(__SANITIZE_THREAD__)
#define LWT_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define LWT_TSAN_BUILD 1
#endif
#endif

namespace {

using lwt::arch::BindPolicy;
using lwt::arch::IdlePolicy;
using lwt::glt::RuntimeOptions;

/// One runtime variable: how a consumer sees it, and what it must read
/// under each source.
struct Knob {
    const char* var;
    std::function<std::string()> read;  // the value consumers see, rendered
    std::string builtin;
    /// Installs a glt::init default; null when RuntimeOptions has no field
    /// for the variable (the default step then still reads the built-in).
    std::function<void(RuntimeOptions&)> set_default;
    std::string default_seen;
    const char* env_value;
    std::string env_seen;
    /// A value the parser must reject.
    const char* malformed;
};

std::string str(bool b) { return b ? "1" : "0"; }

std::string topology_seen() {
    const lwt::arch::Topology t = lwt::arch::Topology::from_env_or_discover();
    return t.synthetic() ? t.describe() : "discovered";
}

std::string spec(const char* s) {
    return lwt::arch::Topology::from_spec(s)->describe();
}

std::vector<Knob> knobs() {
    using lwt::arch::settings;
    const std::string hw = std::to_string(lwt::arch::hardware_threads());
    return {
        {"LWT_STACKSIZE",
         [] { return std::to_string(lwt::arch::default_stack_size()); },
         "65536", nullptr, "65536", "131072", "131072", "4x"},
        {"LWT_STACK_CACHE",
         [] {
             return std::to_string(
                 lwt::arch::StackPool(1 << 16, 64).max_cached());
         },
         "64", [](RuntimeOptions& o) { o.stack_cache = 8; }, "8", "3", "3",
         "abc"},
        {"LWT_STACK_HUGE", [] { return str(lwt::arch::stack_huge_enabled()); },
         "0", [](RuntimeOptions& o) { o.stack_huge = true; }, "1", "off", "0",
         "maybe"},
        {"LWT_CREATE_AUDIT", [] { return str(lwt::arch::audit::enabled()); },
         "0", nullptr, "0", "TRUE", "1", "2"},
        {"LWT_TOPOLOGY", topology_seen, "discovered",
         [](RuntimeOptions& o) { o.topology = "2x1x1"; }, spec("2x1x1"),
         "1x2x1", spec("1x2x1"), "2x"},
        {"LWT_BIND",
         [] {
             return lwt::arch::bind_policy_name(
                 lwt::arch::resolve_bind_policy(BindPolicy::kNone));
         },
         "none", [](RuntimeOptions& o) { o.bind = BindPolicy::kScatter; },
         "scatter", "Compact", "compact", "tight"},
        {"LWT_IDLE_POLICY",
         [] {
             const auto p = settings().idle;
             return std::string(p ? lwt::arch::idle_policy_name(*p) : "-");
         },
         "-", [](RuntimeOptions& o) { o.idle = IdlePolicy::kSpin; }, "spin",
         "Park", "park", "sleep"},
        {"LWT_NUM_STREAMS",
         [] {
             return std::to_string(lwt::core::Runtime::resolve_stream_count(0));
         },
         hw, nullptr, hw, "3", "3", "4x"},
        {"LWT_TRACE", [] { return settings().trace_path; }, "",
         [](RuntimeOptions& o) {
             o.trace_sink = "settings_default_trace.json";
         },
         "settings_default_trace.json", "settings_env_trace.json",
         "settings_env_trace.json", "on"},
        {"LWT_METRICS",
         [] {
             const lwt::arch::Settings s = settings();
             return s.metrics ? (s.metrics_json.empty() ? "table"
                                                        : s.metrics_json)
                              : "off";
         },
         "off", [](RuntimeOptions& o) { o.metrics_sink = "1"; }, "table",
         "settings_metrics.json", "settings_metrics.json", "metrics.txt"},
        {"LWT_IO_POLLER", [] { return str(settings().io_poller); }, "1",
         [](RuntimeOptions& o) { o.io_poller = false; }, "0", "yes", "1", "2"},
        // The env row needs a port other than the default's 0 to show
        // which source won; 1 is never an ephemeral port, and a refused
        // bind only prints a line.
        {"LWT_INTROSPECT",
         [] {
             const auto p = settings().introspect_port;
             return p ? std::to_string(*p) : std::string("off");
         },
         "off", [](RuntimeOptions& o) { o.introspect_addr = "127.0.0.1:0"; },
         "0", "localhost:1", "1", "0.0.0.0:0"},
        {"LWT_WATCHDOG_MS",
         [] { return std::to_string(settings().watchdog_ms); }, "0",
         [](RuntimeOptions& o) { o.watchdog_ms = 250; }, "250", "100", "100",
         "10ms"},
    };
}

/// Boot a small gol runtime from `opts` (glt::init) and read the knob
/// while it runs.
std::string boot_and_read(const Knob& k, RuntimeOptions opts) {
    opts.backend = lwt::glt::Backend::kGol;
    opts.workers = 2;
    auto rt = lwt::glt::init(opts);
    return k.read();
}

class SettingsTest : public ::testing::Test {
  protected:
    void SetUp() override { clear(); }
    void TearDown() override {
        clear();
        for (const char* f :
             {"settings_default_trace.json", "settings_env_trace.json",
              "settings_metrics.json"}) {
            std::remove(f);
        }
    }
    static void clear() {
        for (const Knob& k : knobs()) {
            ::unsetenv(k.var);
        }
        lwt::arch::set_defaults({});
        lwt::arch::load_settings();
    }
};

TEST_F(SettingsTest, EveryKnobResolvesEnvThenInitThenBuiltin) {
    const std::vector<Knob> table = knobs();
    ASSERT_EQ(table.size(), 13u) << "one row per variable docs/api.md lists";
    for (const Knob& k : table) {
        SCOPED_TRACE(k.var);
#ifdef LWT_TSAN_BUILD
        if (std::string(k.var) == "LWT_INTROSPECT") {
            continue;
        }
#endif
        RuntimeOptions with_default;
        if (k.set_default) {
            k.set_default(with_default);
        }
        EXPECT_EQ(boot_and_read(k, {}), k.builtin) << "built-in";
        EXPECT_EQ(boot_and_read(k, with_default), k.default_seen)
            << "glt::init default";

        // A variable set before a boot is seen by that boot, and wins.
        ::setenv(k.var, k.env_value, 1);
        EXPECT_EQ(boot_and_read(k, with_default), k.env_seen) << "env";

        // Malformed: keep the next source, and say so once.
        ::setenv(k.var, k.malformed, 1);
        const std::string note =
            std::string(k.var) + "=\"" + k.malformed + "\"";
        ::testing::internal::CaptureStderr();
        EXPECT_EQ(boot_and_read(k, with_default), k.default_seen)
            << "malformed";
        std::string err = ::testing::internal::GetCapturedStderr();
        EXPECT_NE(err.find(note), std::string::npos) << err;
        ::testing::internal::CaptureStderr();
        (void)boot_and_read(k, with_default);
        err = ::testing::internal::GetCapturedStderr();
        EXPECT_EQ(err.find(note), std::string::npos) << "warned twice";

        // The last glt::init replaces every default: a plain init clears.
        ::unsetenv(k.var);
        EXPECT_EQ(boot_and_read(k, with_default), k.default_seen);
        EXPECT_EQ(boot_and_read(k, {}), k.builtin) << "cleared default";
    }
}

TEST_F(SettingsTest, BooleanSpellings) {
    using lwt::arch::Settings;
    const struct {
        const char* var;
        bool Settings::* field;
    } bools[] = {
        {"LWT_STACK_HUGE", &Settings::stack_huge},
        {"LWT_CREATE_AUDIT", &Settings::create_audit},
        {"LWT_IO_POLLER", &Settings::io_poller},
        {"LWT_METRICS", &Settings::metrics},
    };
    for (const auto& b : bools) {
        SCOPED_TRACE(b.var);
        for (const char* on : {"1", "true", "TRUE", "On", "yes", "YES"}) {
            ::setenv(b.var, on, 1);
            EXPECT_TRUE(lwt::arch::load_settings().*b.field) << on;
        }
        for (const char* off : {"0", "false", "False", "OFF", "no", "No"}) {
            ::setenv(b.var, off, 1);
            EXPECT_FALSE(lwt::arch::load_settings().*b.field) << off;
        }
        ::unsetenv(b.var);
    }
    // Off spellings switch tracing off rather than naming a file "0".
    for (const char* off : {"0", "false", "off", "NO"}) {
        ::setenv("LWT_TRACE", off, 1);
        EXPECT_EQ(lwt::arch::load_settings().trace_path, "") << off;
    }
    // The audit flag the create path reads follows the resolved value.
    ::setenv("LWT_CREATE_AUDIT", "on", 1);
    lwt::arch::load_settings();
    EXPECT_TRUE(lwt::arch::audit::enabled());
    ::setenv("LWT_CREATE_AUDIT", "false", 1);
    lwt::arch::load_settings();
    EXPECT_FALSE(lwt::arch::audit::enabled());
}

TEST_F(SettingsTest, MalformedValuesKeepTheDefault) {
    ::testing::internal::CaptureStderr();
    for (const char* bad : {"4x", "-1", "0", " 4", "four"}) {
        ::setenv("LWT_NUM_STREAMS", bad, 1);
        EXPECT_EQ(lwt::arch::load_settings().num_streams, 0u) << bad;
    }
    for (const char* bad : {"abc", "3x", "-1", "1e3"}) {
        ::setenv("LWT_STACK_CACHE", bad, 1);
        EXPECT_FALSE(lwt::arch::load_settings().stack_cache.has_value())
            << bad;
    }
    for (const char* bad : {"1024", "64k", "-65536"}) {
        ::setenv("LWT_STACKSIZE", bad, 1);
        EXPECT_EQ(lwt::arch::load_settings().stack_size, 64u * 1024) << bad;
    }
    ::setenv("LWT_WATCHDOG_MS", "1.5", 1);
    EXPECT_EQ(lwt::arch::load_settings().watchdog_ms, 0u);
    ::setenv("LWT_IDLE_POLICY", "sleepy", 1);
    EXPECT_FALSE(lwt::arch::load_settings().idle.has_value());
    for (const char* bad :
         {"0.0.0.0:0", "10.0.0.1:9109", "127.0.0.1:x", "70000", "localhost:",
          ":-1"}) {
        ::setenv("LWT_INTROSPECT", bad, 1);
        EXPECT_FALSE(lwt::arch::load_settings().introspect_port.has_value())
            << bad;
    }
    (void)::testing::internal::GetCapturedStderr();

    // Every enum name parses, in any case.
    const auto upper = [](std::string v) {
        for (char& c : v) {
            c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
        }
        return v;
    };
    for (IdlePolicy p :
         {IdlePolicy::kSpin, IdlePolicy::kBackoff, IdlePolicy::kPark}) {
        const std::string name = lwt::arch::idle_policy_name(p);
        for (const std::string& v : {name, upper(name)}) {
            ::setenv("LWT_IDLE_POLICY", v.c_str(), 1);
            EXPECT_EQ(lwt::arch::load_settings().idle, p) << v;
        }
    }
    for (BindPolicy p :
         {BindPolicy::kNone, BindPolicy::kCompact, BindPolicy::kScatter}) {
        const std::string name = lwt::arch::bind_policy_name(p);
        for (const std::string& v : {name, upper(name)}) {
            ::setenv("LWT_BIND", v.c_str(), 1);
            EXPECT_EQ(lwt::arch::load_settings().bind, p) << v;
        }
    }
    // Every loopback spelling of the introspection address.
    for (const char* ok : {"127.0.0.1:9109", "localhost:9109",
                           "LocalHost:9109", ":9109", "9109"}) {
        ::setenv("LWT_INTROSPECT", ok, 1);
        EXPECT_EQ(lwt::arch::load_settings().introspect_port, 9109) << ok;
    }
    // An empty variable counts as unset.
    ::setenv("LWT_BIND", "", 1);
    EXPECT_FALSE(lwt::arch::load_settings().bind.has_value());
}

TEST_F(SettingsTest, ExplicitStreamCountBeatsTheSetting) {
    ::setenv("LWT_NUM_STREAMS", "7", 1);
    lwt::arch::load_settings();
    EXPECT_EQ(lwt::core::Runtime::resolve_stream_count(5), 5u);
    EXPECT_EQ(lwt::core::Runtime::resolve_stream_count(0), 7u);
}

}  // namespace
