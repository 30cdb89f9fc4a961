// telemetry.hpp — the one per-OS-thread shard registry every counter,
// histogram and trace ring of the runtime lives in (in arch because
// arch/audit writes to it; core/metrics.hpp names and reads the cells).
//
// A thread is its shard's only writer, so a count is store(load + n), no
// shared RMW; readers sum over the shards. Shards are never freed: an
// exited thread's shard, totals intact, goes to the next new thread.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>

namespace lwt::arch::telemetry {

inline constexpr std::size_t kCells = 128;          // counter cells per shard
inline constexpr std::size_t kHistogramSlots = 32;  // histograms per shard

/// Cells the create-path audit and the unit-cache allocator write by
/// number; the registry binds the create.* and alloc.unit_cache.* names.
enum FixedCell : std::uint32_t {
    kCreateAtomics,
    kCreateAllocTicks,
    kCreateAllocSamples,
    kUnitCacheAllocs,
    kUnitCacheHits,
    kUnitCacheMisses,
    kFirstNamedCell,
};

/// The single-writer increment: only the owning thread may call it.
inline void bump(std::atomic<std::uint64_t>& c, std::uint64_t n) noexcept {
    c.store(c.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
}

struct alignas(64) Shard {
    std::atomic<std::uint64_t> cells[kCells]{};
    /// Allocated on the owner's first record (core::Histogram's layout).
    std::atomic<std::atomic<std::uint64_t>*> histograms[kHistogramSlots]{};
    /// Stream rank the owner last recorded a per-stream sample under.
    std::atomic<std::uint32_t> stream{0xffffffffu};
    /// Allocated on the owner's first traced event (core::Tracer's ring).
    std::atomic<void*> trace_ring{nullptr};

    void add(std::uint32_t c, std::uint64_t n = 1) noexcept {
        bump(cells[c], n);
    }
};

/// The calling OS thread's shard. Out of line on purpose: a ULT may resume
/// on another thread after a switch point, so never keep it across one.
Shard& this_shard() noexcept;

/// Cell `c` summed over every shard.
[[nodiscard]] std::uint64_t sum(std::uint32_t c) noexcept;

/// Visit every shard ever claimed, under the registry lock.
void for_each_shard(const std::function<void(const Shard&)>& fn);

}  // namespace lwt::arch::telemetry
