// Tests for the create-path memory layer: the per-domain slab/magazine
// descriptor allocator (core/unit_cache), hugepage-backed pooled stacks
// and the process-wide default stack source (arch/stack), and the
// LWT_CREATE_AUDIT accounting shards (arch/audit).
//
// NOTE: the allocator, the stack counters, and the audit shards are all
// process-global and monotonic by design — every assertion below is on
// DELTAS around the operations under test, never on absolute values, so
// the tests stay order-independent.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "arch/audit.hpp"
#include "arch/locality.hpp"
#include "arch/stack.hpp"
#include "core/metrics.hpp"
#include "core/pool.hpp"
#include "core/scheduler.hpp"
#include "core/ult.hpp"
#include "core/unit_cache.hpp"
#include "core/work_unit.hpp"
#include "core/xstream.hpp"

namespace {

using namespace lwt;

/// The allocator's counts, read through the registry as every sink does.
struct UnitCacheTotals {
    std::uint64_t allocs;
    std::uint64_t misses;
    std::uint64_t hits;
};

UnitCacheTotals unit_cache_totals() {
    core::MetricsRegistry& reg = core::MetricsRegistry::instance();
    return {reg.counter("alloc.unit_cache.allocs").value(),
            reg.counter("alloc.unit_cache.misses").value(),
            reg.counter("alloc.unit_cache.hits").value()};
}

// --- slab / magazine allocator ----------------------------------------------

TEST(UnitCacheTest, RoundTripRecirculatesBlocks) {
    constexpr std::size_t kBlocks = 128;
    constexpr std::size_t kSize = 192;  // Ult-descriptor ballpark
    const UnitCacheTotals before = unit_cache_totals();

    std::vector<void*> blocks;
    blocks.reserve(kBlocks);
    for (std::size_t i = 0; i < kBlocks; ++i) {
        void* p = core::unit_cache_alloc(kSize);
        ASSERT_NE(p, nullptr);
        std::memset(p, 0xab, kSize);  // the full size must be writable
        blocks.push_back(p);
    }
    for (void* p : blocks) {
        core::unit_cache_free(p, kSize);
    }
    // Second pass: every allocation can now be served by a recycled block.
    std::size_t reused = 0;
    std::vector<void*> again;
    again.reserve(kBlocks);
    for (std::size_t i = 0; i < kBlocks; ++i) {
        void* p = core::unit_cache_alloc(kSize);
        for (void* q : blocks) {
            if (p == q) {
                ++reused;
                break;
            }
        }
        again.push_back(p);
    }
    for (void* p : again) {
        core::unit_cache_free(p, kSize);
    }
    EXPECT_EQ(reused, kBlocks);  // LIFO magazines: exact recirculation

    const UnitCacheTotals after = unit_cache_totals();
    EXPECT_EQ(after.allocs - before.allocs, 2 * kBlocks);
    // The second pass is all hits, so at least kBlocks hits were added.
    EXPECT_GE(after.hits - before.hits, kBlocks);
    EXPECT_EQ(after.hits, after.allocs - after.misses);
}

TEST(UnitCacheTest, OversizeFallsBackToHeap) {
    const UnitCacheTotals before = unit_cache_totals();
    void* p = core::unit_cache_alloc(4096);  // beyond the cached classes
    ASSERT_NE(p, nullptr);
    std::memset(p, 0xcd, 4096);
    core::unit_cache_free(p, 4096);
    const UnitCacheTotals after = unit_cache_totals();
    // Heap fallback is invisible to the slab stats.
    EXPECT_EQ(after.allocs, before.allocs);
    EXPECT_EQ(after.misses, before.misses);
}

TEST(UnitCacheTest, MagazineRefillAndDrainPastCapacity) {
    // Churn several magazines' worth of one class through alloc and free:
    // forces refill (depot -> thread) on the way up and drain (thread ->
    // depot) on the way down, plus the cur/prev exchange in between.
    const std::size_t cap = core::unit_cache_magazine_cap();
    const std::size_t n = 5 * cap + 3;
    constexpr std::size_t kSize = 64;
    const UnitCacheTotals before = unit_cache_totals();

    std::vector<void*> blocks;
    blocks.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        blocks.push_back(core::unit_cache_alloc(kSize));
    }
    for (void* p : blocks) {
        core::unit_cache_free(p, kSize);
    }
    for (std::size_t i = 0; i < n; ++i) {
        blocks[i] = core::unit_cache_alloc(kSize);
    }
    for (void* p : blocks) {
        core::unit_cache_free(p, kSize);
    }
    const UnitCacheTotals after = unit_cache_totals();
    EXPECT_EQ(after.allocs - before.allocs, 2 * n);
    // Pass two runs on recycled blocks: misses grew by at most pass one.
    EXPECT_LE(after.misses - before.misses, n);
    EXPECT_GE(after.hits - before.hits, n);
}

TEST(UnitCacheTest, CrossThreadFreeKeepsTotalsExact) {
    // Blocks allocated here, freed on another thread: the freeing thread's
    // magazines absorb them, and the fresh-watermark split stays exact
    // (hits can never exceed allocs).
    constexpr std::size_t kBlocks = 96;
    constexpr std::size_t kSize = 128;
    const UnitCacheTotals before = unit_cache_totals();

    std::vector<void*> blocks;
    blocks.reserve(kBlocks);
    for (std::size_t i = 0; i < kBlocks; ++i) {
        blocks.push_back(core::unit_cache_alloc(kSize));
    }
    std::thread free_thread([&blocks] {
        for (void* p : blocks) {
            core::unit_cache_free(p, kSize);
        }
        // The dying thread's magazines return to the depot in ~ThreadCache;
        // alloc once from this thread so its stat shard registers too.
        void* p = core::unit_cache_alloc(kSize);
        core::unit_cache_free(p, kSize);
    });
    free_thread.join();

    const UnitCacheTotals after = unit_cache_totals();
    EXPECT_EQ(after.allocs - before.allocs, kBlocks + 1);
    EXPECT_EQ(after.hits, after.allocs - after.misses);
    EXPECT_GE(after.hits, 0u);
}

TEST(UnitCacheTest, CrossDomainFreeMigratesThroughDepots) {
    // A stream placed in domain 1 frees blocks carved on domain 0 (this
    // unattached thread): they enter domain 1's depot and satisfy the
    // stream's next allocations without new slab growth.
    core::unit_cache_configure_domains(2);
    ASSERT_GE(core::unit_cache_num_domains(), 2u);

    const std::size_t cap = core::unit_cache_magazine_cap();
    const std::size_t n = 2 * cap;
    constexpr std::size_t kSize = 256;
    std::vector<void*> blocks;
    blocks.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        blocks.push_back(core::unit_cache_alloc(kSize));
    }

    const UnitCacheTotals before = unit_cache_totals();
    core::MpmcPool pool;
    auto stream = std::make_unique<core::XStream>(
        0, std::make_unique<core::Scheduler>(
               std::vector<core::Pool*>{&pool}));
    arch::StreamPlacement place;
    place.domain = 1;
    stream->set_placement(place);
    stream->start();

    std::atomic<bool> done{false};
    auto* unit = new core::Tasklet([&blocks, &done] {
        for (void* p : blocks) {
            core::unit_cache_free(p, 256);
        }
        // Re-alloc a magazine's worth on domain 1: served by the blocks
        // just freed (depot recirculation), not fresh slab carving.
        std::vector<void*> again;
        const std::size_t m = blocks.size() / 2;
        again.reserve(m);
        for (std::size_t i = 0; i < m; ++i) {
            again.push_back(core::unit_cache_alloc(256));
        }
        for (void* p : again) {
            core::unit_cache_free(p, 256);
        }
        done.store(true, std::memory_order_release);
    });
    unit->detached = true;
    pool.push(unit);
    while (!done.load(std::memory_order_acquire)) {
        std::this_thread::yield();
    }
    stream->stop_and_join();
    stream.reset();

    const UnitCacheTotals after = unit_cache_totals();
    // +1 for the Tasklet descriptor itself (class-scoped operator new).
    EXPECT_GE(after.allocs - before.allocs, n / 2);
    EXPECT_EQ(after.hits, after.allocs - after.misses);
    // The re-allocation pass ran entirely on recycled blocks.
    EXPECT_GE(after.hits - before.hits, n / 2);
}

TEST(UnitCacheTest, ConfigureDomainsGrowsOnlyAndClamps) {
    const std::size_t initial = core::unit_cache_num_domains();
    core::unit_cache_configure_domains(0);  // nonsense input -> clamp to 1
    EXPECT_GE(core::unit_cache_num_domains(), initial);  // never shrinks
    core::unit_cache_configure_domains(1);
    EXPECT_GE(core::unit_cache_num_domains(), initial);
    core::unit_cache_configure_domains(1u << 20);  // clamped to the bound
    const std::size_t capped = core::unit_cache_num_domains();
    EXPECT_LE(capped, 64u);
    core::unit_cache_configure_domains(2);
    EXPECT_EQ(core::unit_cache_num_domains(), capped);  // still grow-only
}

// --- work-unit descriptors ride the cache ------------------------------------

TEST(UnitCacheTest, WorkUnitsAllocateFromSlabs) {
    const UnitCacheTotals before = unit_cache_totals();
    {
        auto t = std::make_unique<core::Tasklet>([] {});
        auto u = std::make_unique<core::Ult>([] {}, arch::Stack::allocate(
                                                        16 * 1024));
    }
    const UnitCacheTotals after = unit_cache_totals();
    EXPECT_EQ(after.allocs - before.allocs, 2u);
}

// --- hugepage stacks ----------------------------------------------------------

TEST(StackTest, HugeStackAllocatesAndCounts) {
    const std::uint64_t denied0 = arch::stack_thp_denied_count();
    arch::Stack s = arch::Stack::allocate(2 * 1024 * 1024, /*huge=*/true);
    ASSERT_TRUE(s.valid());
    EXPECT_GE(s.usable(), 2u * 1024 * 1024);
    // Whether the kernel honoured MADV_HUGEPAGE or not, the stack works.
    std::memset(static_cast<char*>(s.top()) - 4096, 0x5a, 4096);
    // Denials only ever accumulate; an honoured request adds none.
    EXPECT_GE(arch::stack_thp_denied_count(), denied0);
}

TEST(StackTest, ThpDenialFallsBackGracefully) {
    arch::stack_thp_force_failure(true);
    const std::uint64_t denied0 = arch::stack_thp_denied_count();
    arch::Stack s = arch::Stack::allocate(64 * 1024, /*huge=*/true);
    arch::stack_thp_force_failure(false);
    ASSERT_TRUE(s.valid());  // THP is an optimisation, never a requirement
    EXPECT_EQ(arch::stack_thp_denied_count(), denied0 + 1);
    std::memset(static_cast<char*>(s.top()) - 1024, 0x5a, 1024);
}

// --- stack pools --------------------------------------------------------------

TEST(StackTest, StackPoolCapsAndDecommits) {
    if (std::getenv("LWT_STACK_CACHE") != nullptr) {
        GTEST_SKIP() << "LWT_STACK_CACHE set in the environment";
    }
    arch::StackPool pool(32 * 1024, /*max_cached=*/8);
    const std::uint64_t unmaps0 = arch::stack_unmap_count();
    std::vector<arch::Stack> stacks;
    for (int i = 0; i < 12; ++i) {
        stacks.push_back(pool.acquire());
    }
    for (auto& s : stacks) {
        pool.recycle(std::move(s));
    }
    EXPECT_EQ(pool.cached(), 8u);  // extras freed at the cap
    EXPECT_EQ(arch::stack_unmap_count() - unmaps0, 4u);
    // Bulk churn through the pool reuses the cached stacks.
    const std::uint64_t maps0 = arch::stack_map_count();
    for (int round = 0; round < 3; ++round) {
        std::vector<arch::Stack> batch;
        pool.acquire_bulk(batch, 8);
        pool.recycle_bulk(batch);
    }
    EXPECT_EQ(arch::stack_map_count(), maps0);  // zero fresh mmaps
}

TEST(StackTest, StackCacheDrainsFromTheTailInBatches) {
    arch::SharedStackPool shared(16 * 1024, /*max_cached=*/256);
    arch::StackCache cache(&shared);
    const std::size_t kBatch = arch::StackCache::kBatch;
    // Push past the 2*kBatch high-water mark: exactly one batch drains,
    // leaving kBatch+1 behind (the drain is O(kBatch), from the tail).
    for (std::size_t i = 0; i < 2 * kBatch + 1; ++i) {
        cache.recycle(arch::Stack::allocate(16 * 1024));
    }
    EXPECT_EQ(cache.cached(), kBatch + 1);
    EXPECT_EQ(shared.cached(), kBatch);
}

TEST(StackTest, DefaultSourcePoolsUltStacks) {
    // Plain `new Ult(fn)` draws from the process-wide source and ~Ult
    // recycles: churning many ULTs costs at most one refill batch of maps.
    {  // warm the thread-local cache
        auto warm = std::make_unique<core::Ult>([] {});
    }
    const std::uint64_t maps0 = arch::stack_map_count();
    for (int i = 0; i < 64; ++i) {
        auto u = std::make_unique<core::Ult>([] {});
    }
    // Create/destroy churn reuses one pooled stack; at most one refill
    // batch of fresh maps if the thread cache started cold.
    EXPECT_LE(arch::stack_map_count() - maps0,
              arch::StackCache::kBatch);
}

// --- audit shards -------------------------------------------------------------

/// The create.* registry counters the audit writes.
struct AuditCounters {
    core::Counter& rmw =
        core::MetricsRegistry::instance().counter("create.atomics");
    core::Counter& alloc_ticks =
        core::MetricsRegistry::instance().counter("create.alloc_ticks");
    core::Counter& alloc_samples =
        core::MetricsRegistry::instance().counter("create.alloc_samples");

    void reset() {
        rmw.reset();
        alloc_ticks.reset();
        alloc_samples.reset();
    }
};

TEST(AuditTest, ForceEnabledCountersAccumulate) {
    arch::audit::force_enable(true);
    AuditCounters c;
    c.reset();
    ASSERT_TRUE(arch::audit::enabled());
    arch::audit::count_rmw();
    arch::audit::count_rmw(3);
    arch::audit::count_alloc_ticks(100);
    std::thread other([] {
        arch::audit::count_rmw(5);
        arch::audit::count_alloc_ticks(50);
    });
    other.join();
    EXPECT_EQ(c.rmw.value(), 9u);
    EXPECT_EQ(c.alloc_ticks.value(), 150u);
    EXPECT_EQ(c.alloc_samples.value(), 2u);
    c.reset();
    EXPECT_EQ(c.rmw.value(), 0u);
    EXPECT_EQ(c.alloc_samples.value(), 0u);
    arch::audit::force_enable(false);
}

TEST(AuditTest, AuditedAllocPathRecordsLatency) {
    arch::audit::force_enable(true);
    AuditCounters c;
    c.reset();
    void* p = core::unit_cache_alloc(128);
    core::unit_cache_free(p, 128);
    EXPECT_EQ(c.alloc_samples.value(), 1u);
    EXPECT_GT(c.alloc_ticks.value(), 0u);
    arch::audit::force_enable(false);
}

// --- registry publishing ------------------------------------------------------

TEST(MetricsTest, PublishAllocMetricsExposesAllocatorTotals) {
    // Make sure there is something to publish.
    void* p = core::unit_cache_alloc(64);
    core::unit_cache_free(p, 64);
    core::publish_alloc_metrics();
    core::MetricsRegistry& reg = core::MetricsRegistry::instance();
    const UnitCacheTotals t = unit_cache_totals();
    EXPECT_GT(t.allocs, 0u);
    EXPECT_EQ(t.hits, t.allocs - t.misses);
    // Every sink's snapshot lists the allocator counters with those values.
    const core::MetricsSnapshot snap = core::snapshot_metrics();
    EXPECT_EQ(snap.counter("alloc.unit_cache.allocs"), t.allocs);
    EXPECT_EQ(snap.counter("alloc.unit_cache.hits"), t.hits);
    EXPECT_EQ(snap.counter("alloc.unit_cache.misses"), t.misses);
    EXPECT_EQ(reg.gauge("alloc.slab.bytes").value(),
              static_cast<std::int64_t>(core::unit_cache_slab_bytes()));
    EXPECT_GE(reg.gauge("alloc.slab.bytes").value(),
              static_cast<std::int64_t>(64 * 1024));
    // Publishing is idempotent: a second publish must not double-count.
    core::publish_alloc_metrics();
    EXPECT_EQ(reg.counter("alloc.unit_cache.allocs").value(), t.allocs);
    EXPECT_EQ(reg.counter("alloc.unit_cache.misses").value(), t.misses);
}

}  // namespace
