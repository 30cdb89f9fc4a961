#include "arch/settings.hpp"

#include <atomic>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <set>
#include <string_view>
#include <utility>

#include "arch/audit.hpp"

namespace lwt::arch {
namespace {

bool ieq(std::string_view a, std::string_view b) {
    if (a.size() != b.size()) {
        return false;
    }
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (std::tolower(static_cast<unsigned char>(a[i])) !=
            std::tolower(static_cast<unsigned char>(b[i]))) {
            return false;
        }
    }
    return true;
}

}  // namespace

// --- the one parser ---------------------------------------------------------

std::optional<bool> parse_bool(std::string_view v) {
    for (const char* on : {"1", "true", "on", "yes"}) {
        if (ieq(v, on)) {
            return true;
        }
    }
    for (const char* off : {"0", "false", "off", "no"}) {
        if (ieq(v, off)) {
            return false;
        }
    }
    return std::nullopt;
}

namespace {

/// A whole-string decimal of type T that is at least `min`.
template <typename T>
auto parse_number(T min) {
    return [min](std::string_view v) -> std::optional<T> {
        T out{};
        const char* end = v.data() + v.size();
        const auto [p, ec] = std::from_chars(v.data(), end, out);
        if (ec != std::errc{} || p != end || out < min) {
            return std::nullopt;
        }
        return out;
    };
}

std::optional<BindPolicy> parse_bind(std::string_view v) {
    for (BindPolicy p :
         {BindPolicy::kNone, BindPolicy::kCompact, BindPolicy::kScatter}) {
        if (ieq(v, bind_policy_name(p))) {
            return p;
        }
    }
    return std::nullopt;
}

std::optional<IdlePolicy> parse_idle(std::string_view v) {
    for (IdlePolicy p :
         {IdlePolicy::kSpin, IdlePolicy::kBackoff, IdlePolicy::kPark}) {
        if (ieq(v, idle_policy_name(p))) {
            return p;
        }
    }
    return std::nullopt;
}

std::optional<std::string> parse_topology(std::string_view v) {
    if (!Topology::from_spec(v)) {
        return std::nullopt;
    }
    return std::string(v);
}

/// A trace path; an off spelling disables. An on spelling names no file.
std::optional<std::string> parse_trace(std::string_view v) {
    if (const std::optional<bool> b = parse_bool(v)) {
        return *b ? std::nullopt : std::optional<std::string>("");
    }
    return std::string(v);
}

/// {report on, JSON path}: a boolean, or a *.json path (report + dump).
std::optional<std::pair<bool, std::string>> parse_metrics(std::string_view v) {
    if (const std::optional<bool> b = parse_bool(v)) {
        return std::pair<bool, std::string>(*b, "");
    }
    if (v.size() > 5 && v.substr(v.size() - 5) == ".json") {
        return std::pair<bool, std::string>(true, std::string(v));
    }
    return std::nullopt;
}

/// "127.0.0.1:PORT" | "localhost:PORT" | ":PORT" | "PORT" -> PORT. Any
/// other host is malformed: the endpoints expose runtime internals and
/// io::Listener only binds loopback anyway.
std::optional<std::uint16_t> parse_introspect(std::string_view v) {
    if (const auto colon = v.rfind(':'); colon != std::string_view::npos) {
        const std::string_view host = v.substr(0, colon);
        if (!host.empty() && host != "127.0.0.1" && !ieq(host, "localhost")) {
            return std::nullopt;
        }
        v = v.substr(colon + 1);
    }
    return parse_number<std::uint16_t>(0)(v);
}

// --- resolution -------------------------------------------------------------

struct Store {
    std::mutex mutex;
    SettingDefaults defaults;
    Settings current;
    bool loaded = false;
    std::set<std::string> warned;  // "NAME=value" already reported
};

Store& store() {
    // Leaked: thread_local destructors may still create stacks at exit.
    static Store* s = new Store;
    return *s;
}

// Published copies of what the create path reads without the lock.
std::atomic<std::size_t> g_stack_size{0};  // 0 until the first load
std::atomic<bool> g_stack_huge{false};

/// Overlay `field` with `raw` (a variable's value or a default) when it is
/// non-empty and parses; warn once per name and value otherwise.
template <typename T, typename Parse>
void overlay(Store& st, T& field, const char* name, const char* raw,
             Parse parse, const char* expected) {
    if (raw == nullptr || *raw == '\0') {
        return;
    }
    if (auto v = parse(std::string_view(raw))) {
        field = std::move(*v);
    } else if (st.warned.insert(std::string(name) + "=" + raw).second) {
        std::fprintf(stderr,
                     "[lwt] ignoring malformed %s=\"%s\" (expected %s)\n",
                     name, raw, expected);
    }
}

constexpr const char* kBool = "1/true/on/yes or 0/false/off/no";
constexpr const char* kIntrospect = "[127.0.0.1|localhost]:PORT";

Settings resolve(Store& st) {
    const SettingDefaults& d = st.defaults;
    Settings s;
    // Built-ins (the member initialisers), then glt::init's defaults...
    s.stack_cache = d.stack_cache;
    s.stack_huge = d.stack_huge.value_or(s.stack_huge);
    s.bind = d.bind;
    s.idle = d.idle;
    s.io_poller = d.io_poller.value_or(s.io_poller);
    s.watchdog_ms = d.watchdog_ms.value_or(s.watchdog_ms);
    std::pair<bool, std::string> metrics{false, ""};
    overlay(st, s.topology, "RuntimeOptions::topology", d.topology.c_str(),
            parse_topology, "PxCxT, e.g. 2x18x2");
    overlay(st, s.trace_path, "RuntimeOptions::trace_sink",
            d.trace_sink.c_str(), parse_trace, "a path");
    overlay(st, metrics, "RuntimeOptions::metrics_sink",
            d.metrics_sink.c_str(), parse_metrics, "a boolean or *.json");
    overlay(st, s.introspect_port, "RuntimeOptions::introspect_addr",
            d.introspect_addr.c_str(), parse_introspect, kIntrospect);

    // ...then the environment.
    const auto env = [&st](auto& field, const char* name, auto parse,
                           const char* expected) {
        overlay(st, field, name, std::getenv(name), parse, expected);
    };
    env(s.stack_size, "LWT_STACKSIZE", parse_number<std::size_t>(4096),
        "bytes >= 4096");
    env(s.stack_cache, "LWT_STACK_CACHE", parse_number<std::size_t>(0),
        "a stack count");
    env(s.stack_huge, "LWT_STACK_HUGE", parse_bool, kBool);
    env(s.create_audit, "LWT_CREATE_AUDIT", parse_bool, kBool);
    env(s.topology, "LWT_TOPOLOGY", parse_topology, "PxCxT, e.g. 2x18x2");
    env(s.bind, "LWT_BIND", parse_bind, "none/compact/scatter");
    env(s.idle, "LWT_IDLE_POLICY", parse_idle, "spin/backoff/park");
    env(s.num_streams, "LWT_NUM_STREAMS", parse_number<std::size_t>(1),
        "a count >= 1");
    env(s.trace_path, "LWT_TRACE", parse_trace, "a path or an off spelling");
    env(metrics, "LWT_METRICS", parse_metrics, "a boolean or *.json");
    env(s.io_poller, "LWT_IO_POLLER", parse_bool, kBool);
    env(s.introspect_port, "LWT_INTROSPECT", parse_introspect, kIntrospect);
    env(s.watchdog_ms, "LWT_WATCHDOG_MS", parse_number<std::uint32_t>(0),
        "milliseconds");
    s.metrics = metrics.first;
    s.metrics_json = std::move(metrics.second);
    return s;
}

const Settings& load_locked(Store& st) {
    st.current = resolve(st);
    st.loaded = true;
    g_stack_size.store(st.current.stack_size, std::memory_order_relaxed);
    g_stack_huge.store(st.current.stack_huge, std::memory_order_relaxed);
    audit::force_enable(st.current.create_audit);
    return st.current;
}

}  // namespace

const char* idle_policy_name(IdlePolicy p) noexcept {
    switch (p) {
        case IdlePolicy::kSpin: return "spin";
        case IdlePolicy::kBackoff: return "backoff";
        case IdlePolicy::kPark: return "park";
    }
    return "?";
}

void set_defaults(SettingDefaults defaults) {
    Store& st = store();
    std::lock_guard g(st.mutex);
    st.defaults = std::move(defaults);
}

Settings load_settings() {
    Store& st = store();
    std::lock_guard g(st.mutex);
    return load_locked(st);
}

Settings settings() {
    Store& st = store();
    std::lock_guard g(st.mutex);
    return st.loaded ? st.current : load_locked(st);
}

void ensure_settings_loaded() noexcept {
    try {
        Store& st = store();
        std::lock_guard g(st.mutex);
        if (!st.loaded) {
            (void)load_locked(st);
        }
    } catch (...) {
        // Out of memory or a failed lock: the built-ins stay in force.
    }
}

std::size_t default_stack_size() noexcept {
    std::size_t n = g_stack_size.load(std::memory_order_relaxed);
    if (n == 0) {
        ensure_settings_loaded();
        n = g_stack_size.load(std::memory_order_relaxed);
    }
    return n != 0 ? n : kBuiltinStackSize;
}

bool stack_huge_enabled() noexcept {
    if (g_stack_size.load(std::memory_order_relaxed) == 0) {
        ensure_settings_loaded();
    }
    return g_stack_huge.load(std::memory_order_relaxed);
}

std::optional<std::uint64_t> parse_unsigned(std::string_view v) {
    return parse_number<std::uint64_t>(0)(v);
}

}  // namespace lwt::arch
