// audit.hpp — create-path accounting mode (LWT_CREATE_AUDIT).
//
// The spawn path's cost is dominated by two things the profiler cannot
// separate cheaply: shared-cacheline RMWs (locks, fetch_adds) and allocator
// work. This facility counts both, but only when armed: every counting site
// guards on enabled(), so the disabled path costs one branch on a cached
// bool. Counts live in per-thread shards (single-writer relaxed stores, no
// RMW — the audit must not perturb what it measures) that are leaked on
// thread exit so snapshot() always covers the whole process history.
//
// Sits in arch (below core) so the stack pool and the personalities can
// both report; core/observability folds snapshot() into the metrics
// registry as `create.atomics` / `create.alloc_ticks` at flush.
#pragma once

#include <atomic>
#include <cstdint>

namespace lwt::arch::audit {

namespace detail {

struct Shard {
    // Single-writer (the owning thread); readers tolerate slightly stale
    // values. store(load+1) keeps the counters RMW-free.
    std::atomic<std::uint64_t> rmw{0};
    std::atomic<std::uint64_t> alloc_ticks{0};
    std::atomic<std::uint64_t> alloc_samples{0};
};

Shard& shard_for_this_thread();
bool enabled_slow() noexcept;

inline std::atomic<int>& cached_flag() noexcept {
    static std::atomic<int> flag{-1};  // -1 = unresolved
    return flag;
}

inline void bump(std::atomic<std::uint64_t>& c,
                 std::uint64_t n = 1) noexcept {
    c.store(c.load(std::memory_order_relaxed) + n,
            std::memory_order_relaxed);
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
    detail::bump(detail::shard_for_this_thread().rmw, n);
}

/// One descriptor allocation took `ticks` rdtsc ticks. Call only under
/// enabled().
inline void count_alloc_ticks(std::uint64_t ticks) noexcept {
    detail::Shard& s = detail::shard_for_this_thread();
    detail::bump(s.alloc_ticks, ticks);
    detail::bump(s.alloc_samples, 1);
}

struct Snapshot {
    std::uint64_t rmw = 0;            ///< shared RMWs on audited paths
    std::uint64_t alloc_ticks = 0;    ///< rdtsc ticks inside unit_cache_alloc
    std::uint64_t alloc_samples = 0;  ///< timed allocations
};

/// Sum over every shard ever created (exited threads included).
[[nodiscard]] Snapshot snapshot() noexcept;

/// Zero every shard (between audit windows; counts since process start
/// otherwise).
void reset() noexcept;

}  // namespace lwt::arch::audit
