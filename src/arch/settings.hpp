// settings.hpp — every LWT_* runtime setting, resolved in one place.
//
// Each setting resolves in the same order: the environment variable when
// it is set and well-formed, else the programmatic default glt::init
// installed (set_defaults), else the built-in. One parser serves every
// variable:
//
//   booleans   1/true/on/yes vs 0/false/off/no, case-insensitive
//   numbers    decimal, whole string ("4x" is malformed)
//   enums      case-insensitive names
//
// A malformed value warns once on stderr and keeps the next source in
// the order. docs/api.md lists every variable.
//
// Resolution happens at runtime boot: every runtime object's
// core::ObservabilitySession calls load_settings() as it is constructed,
// so a variable set before a boot is seen by that boot. Boot-time
// readers take a settings() snapshot; the two values the per-unit create
// path needs (stack size, hugepage advice) are lock-free loads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "arch/topology.hpp"

namespace lwt::arch {

/// How an idle consumer waits for work (see sync/idle_backoff.hpp, which
/// implements the ladder).
enum class IdlePolicy : std::uint8_t {
    kSpin,     ///< relax+yield every iteration (the pre-backoff behaviour)
    kBackoff,  ///< bounded spin, then yields with exponential pause trains
    kPark,     ///< backoff first, then block on a ParkingLot
};

[[nodiscard]] const char* idle_policy_name(IdlePolicy p) noexcept;

inline constexpr std::size_t kBuiltinStackSize = 64 * 1024;

/// The resolved value of every runtime variable.
struct Settings {
    /// LWT_STACKSIZE: usable bytes per default ULT stack (>= 4096).
    std::size_t stack_size = kBuiltinStackSize;
    /// LWT_STACK_CACHE: free stacks a StackPool keeps; nullopt = the
    /// pool's own cap.
    std::optional<std::size_t> stack_cache;
    /// LWT_STACK_HUGE: MADV_HUGEPAGE on new stacks.
    bool stack_huge = false;
    /// LWT_CREATE_AUDIT: arm the create-path accounting (arch/audit.hpp).
    bool create_audit = false;
    /// LWT_TOPOLOGY: a valid Topology::from_spec string; "" = discover.
    std::string topology;
    /// LWT_BIND: nullopt = the personality Config's policy.
    std::optional<BindPolicy> bind;
    /// LWT_IDLE_POLICY: nullopt = the runtime's IdleConfig policy.
    std::optional<IdlePolicy> idle;
    /// LWT_NUM_STREAMS: stream count when a Config asks for 0; 0 = the
    /// hardware thread count.
    std::size_t num_streams = 0;
    /// LWT_TRACE: Chrome-trace output path; "" = off.
    std::string trace_path;
    /// LWT_METRICS: a boolean (report on stderr at shutdown) or a *.json
    /// path (report plus JSON dump there).
    bool metrics = false;
    std::string metrics_json;
    /// LWT_IO_POLLER: run the reactor's dedicated poller thread.
    bool io_poller = true;
    /// LWT_INTROSPECT: loopback port of the HTTP endpoint (0 = a free
    /// one); nullopt = off.
    std::optional<std::uint16_t> introspect_port;
    /// LWT_WATCHDOG_MS: stall-watchdog interval; 0 = off.
    std::uint32_t watchdog_ms = 0;
};

/// The programmatic defaults (glt::RuntimeOptions' fields of the same
/// names): empty / nullopt leaves the built-in in place.
struct SettingDefaults {
    std::string topology;
    std::optional<BindPolicy> bind;
    std::optional<IdlePolicy> idle;
    std::optional<std::size_t> stack_cache;
    std::optional<bool> stack_huge;
    std::string trace_sink;
    std::string metrics_sink;
    std::optional<bool> io_poller;
    std::string introspect_addr;
    std::optional<std::uint32_t> watchdog_ms;
};

/// Replace the programmatic defaults wholesale (a field left empty clears
/// what an earlier call installed). Seen by the next load_settings().
void set_defaults(SettingDefaults defaults);

/// Re-read the environment, apply the defaults, publish and return the
/// result. Runtime boots call this; so may a test that sets a variable
/// and then exercises a subsystem without booting a runtime.
Settings load_settings();

/// The settings the last load_settings() published (the first call in a
/// process loads them). A copy, taken under a lock: for boot-time reads.
[[nodiscard]] Settings settings();

/// Default ULT stack size (Settings::stack_size) and hugepage advice
/// (Settings::stack_huge): one relaxed load each, for the create path.
[[nodiscard]] std::size_t default_stack_size() noexcept;
[[nodiscard]] bool stack_huge_enabled() noexcept;

/// The grammar of every variable above, for other knob families (the
/// benches' LWTBENCH_*): a case-insensitive 1/true/on/yes vs 0/false/off/no,
/// and a whole-string unsigned decimal. nullopt when malformed.
[[nodiscard]] std::optional<bool> parse_bool(std::string_view v);
[[nodiscard]] std::optional<std::uint64_t> parse_unsigned(std::string_view v);

/// The first load, for noexcept readers that may run before any boot:
/// publishes the lock-free values (stack size, hugepage advice, the audit
/// flag) without copying Settings. If the load fails the built-ins stay.
void ensure_settings_loaded() noexcept;

}  // namespace lwt::arch
