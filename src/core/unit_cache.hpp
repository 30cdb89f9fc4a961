// unit_cache.hpp — per-domain slab allocator for work-unit descriptors.
//
// Fine-grained benchmarks (Figs. 2-3) pay one descriptor allocation per
// created unit; with thousands of same-sized Ult/Tasklet descriptors
// churning per second, the general-purpose allocator's locking and
// size-class bookkeeping shows up directly in create/join cost. Layering
// (fast to slow):
//
//   magazine   two per-thread arrays of blocks per size class (Bonwick's
//              magazine scheme): alloc/free touch only thread-local state —
//              no lock, no shared cacheline — until a magazine runs dry or
//              fills up.
//   depot      one per locality domain (LocalityMap packages), spinlocked,
//              exchanging *whole magazines* with threads: the lock is paid
//              once per kMagazineCap blocks, and producer/consumer streams
//              on one package recirculate descriptors without crossing it.
//   slab       page-multiple arenas carved into blocks under the depot
//              lock. Append-only and intentionally leaked (the mold idiom):
//              the arena is bounded by the peak live descriptor set, and
//              freed blocks recirculate through magazines forever.
//   heap       ::operator new, only for blocks beyond the cached classes.
//
// Blocks freed on a different domain than they were carved on simply enter
// the freeing domain's depot — descriptors migrate to where they die,
// which is where the next spawn wants them.
//
// Ult and Tasklet opt in via class-scoped operator new/delete; `delete`
// through a WorkUnit* stays correct because the virtual destructor resolves
// the deallocation function in the most-derived class's scope.
#pragma once

#include <cstddef>
#include <cstdint>

namespace lwt::core {

/// Allocate a descriptor block of `size` bytes. Falls back to the global
/// allocator for sizes beyond the cached classes.
void* unit_cache_alloc(std::size_t size);

/// Return a block obtained from unit_cache_alloc with the same `size`.
void unit_cache_free(void* ptr, std::size_t size) noexcept;

/// Size the depot tier: one depot per locality domain, up to an internal
/// cap. Personalities call this at boot with LocalityMap::num_domains();
/// the count only ever grows (coexisting runtimes keep their domains).
/// Threads resolve their domain via XStream::current()'s placement;
/// unattached threads use domain 0.
void unit_cache_configure_domains(std::size_t num_domains) noexcept;
[[nodiscard]] std::size_t unit_cache_num_domains() noexcept;

/// Blocks per magazine (the depot-lock amortisation factor; tests).
[[nodiscard]] std::size_t unit_cache_magazine_cap() noexcept;

/// Bytes of slab arena carved so far (alloc.slab.bytes). The allocation
/// counts are the alloc.unit_cache.{allocs,hits,misses} registry counters:
/// hits == allocs - misses, a miss being a block carved fresh from a slab.
[[nodiscard]] std::uint64_t unit_cache_slab_bytes() noexcept;

}  // namespace lwt::core
