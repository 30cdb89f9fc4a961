// audit.hpp — create-path accounting mode (LWT_CREATE_AUDIT).
//
// The spawn path's cost is dominated by two things the profiler cannot
// separate cheaply: shared-cacheline RMWs (locks, fetch_adds) and allocator
// work. This facility counts both, but only when armed: every counting site
// guards on enabled(), so the disabled path costs one branch on a cached
// bool. Counts go to fixed cells of the calling thread's telemetry shard
// (arch/telemetry.hpp: single-writer relaxed stores, no RMW — the audit
// must not perturb what it measures), which core::MetricsRegistry reads
// as `create.atomics` / `create.alloc_ticks` / `create.alloc_samples`.
#pragma once

#include <atomic>
#include <cstdint>

#include "arch/telemetry.hpp"

namespace lwt::arch::audit {

namespace detail {

bool enabled_slow() noexcept;

inline std::atomic<int>& cached_flag() noexcept {
    static std::atomic<int> flag{-1};  // -1 = unresolved
    return flag;
}

}  // namespace detail

/// Settings::create_audit (LWT_CREATE_AUDIT) as of the last runtime boot,
/// or the last force_enable() since.
inline bool enabled() noexcept {
    const int f = detail::cached_flag().load(std::memory_order_relaxed);
    if (f >= 0) {
        return f != 0;
    }
    return detail::enabled_slow();
}

/// Test/tool hook: flip the mode regardless of the environment, until the
/// next load_settings() (runtime boot) re-publishes the setting.
void force_enable(bool on) noexcept;

/// One shared-cacheline RMW (lock acquire, fetch_add, CAS) on the spawn
/// path. Call only under enabled().
inline void count_rmw(std::uint64_t n = 1) noexcept {
    telemetry::this_shard().add(telemetry::kCreateAtomics, n);
}

/// One descriptor allocation took `ticks` rdtsc ticks. Call only under
/// enabled().
inline void count_alloc_ticks(std::uint64_t ticks) noexcept {
    telemetry::Shard& s = telemetry::this_shard();
    s.add(telemetry::kCreateAllocTicks, ticks);
    s.add(telemetry::kCreateAllocSamples);
}

}  // namespace lwt::arch::audit
