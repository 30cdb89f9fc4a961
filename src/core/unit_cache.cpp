#include "core/unit_cache.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <mutex>
#include <new>
#include <vector>

#include "arch/audit.hpp"
#include "arch/cpu.hpp"
#include "arch/telemetry.hpp"
#include "core/xstream.hpp"
#include "sync/spinlock.hpp"

namespace lwt::core {
namespace {

// 64-byte size classes cover every descriptor (Tasklet ~144 B, Ult ~200 B)
// with one bucket each and no per-block header.
constexpr std::size_t kClassBytes = 64;
constexpr std::size_t kNumClasses = 8;  // up to 512 B
constexpr std::size_t kMaxCached = kClassBytes * kNumClasses;
// Blocks per magazine: the depot spinlock is paid once per this many
// allocations in steady state.
constexpr std::size_t kMagazineCap = 64;
// Slab granule carved into blocks under the depot lock.
constexpr std::size_t kSlabBytes = 64 * 1024;
// Depot tier bound; LocalityMap domain counts beyond this fold modulo.
constexpr std::size_t kMaxDomains = 16;

constexpr std::size_t class_index(std::size_t size) noexcept {
    return (size + kClassBytes - 1) / kClassBytes - 1;
}

struct Magazine {
    std::size_t count = 0;
    // blocks[0..fresh) were carved from a slab and never yet handed out:
    // popping one is a miss, popping a recycled block above the watermark
    // is a hit. Travels with the magazine through the depot, so the
    // hit/miss split stays exact across thread and domain migration.
    std::size_t fresh = 0;
    void* blocks[kMagazineCap];
};

// Per-domain exchange point. Holds loaded magazines per class, a shared
// pool of empty magazine shells, and the bump pointer into the current
// slab (one mixed-class arena per domain: carving just advances the
// pointer by the class's block size).
struct DomainDepot {
    sync::Spinlock lock;
    std::vector<Magazine*> loaded[kNumClasses];
    std::vector<Magazine*> empties;
    char* carve = nullptr;
    char* carve_end = nullptr;
};

// Global state. Intentionally leaked: worker threads drain their magazines
// during static destruction, after a function-local static's destructor
// would already have run.
struct Global {
    std::atomic<std::size_t> num_domains{1};
    std::atomic<std::uint64_t> slab_bytes{0};
    DomainDepot depots[kMaxDomains];
};

Global& global() {
    static Global* g = new Global;
    return *g;
}

struct ThreadCache {
    Magazine* cur[kNumClasses] = {};
    Magazine* prev[kNumClasses] = {};
    // Claimed during construction, so the shard's release at thread exit
    // runs after this cache's destructor: it stays this thread's shard.
    arch::telemetry::Shard& stats = arch::telemetry::this_shard();
    // Domain of the last depot trip: the hot path never queries placement,
    // and the thread-exit drain happens after the stream TLS may be gone.
    std::size_t last_domain = 0;

    ~ThreadCache() {
        Global& g = global();
        DomainDepot& d = g.depots[last_domain % kMaxDomains];
        std::lock_guard guard(d.lock);
        for (std::size_t c = 0; c < kNumClasses; ++c) {
            for (Magazine* m : {cur[c], prev[c]}) {
                if (m == nullptr) {
                    continue;
                }
                if (m->count > 0) {
                    d.loaded[c].push_back(m);
                } else {
                    d.empties.push_back(m);
                }
            }
        }
    }
};

ThreadCache& thread_cache() {
    thread_local ThreadCache cache;
    return cache;
}

std::size_t current_domain() noexcept {
    const std::size_t n =
        global().num_domains.load(std::memory_order_relaxed);
    if (n <= 1) {
        return 0;
    }
    XStream* stream = XStream::current();
    return stream != nullptr ? stream->placement().domain % n : 0;
}

/// Fill the empty shell `m` with up to kMagazineCap fresh blocks of class
/// `c` from the domain's slab arena (allocating a new slab when the
/// current one is spent). Caller holds d.lock.
void carve_into(DomainDepot& d, std::size_t c, Magazine& m) {
    const std::size_t block = (c + 1) * kClassBytes;
    while (m.count < kMagazineCap) {
        if (static_cast<std::size_t>(d.carve_end - d.carve) < block) {
            if (m.count > 0) {
                break;  // partial magazine is fine; don't eagerly grow
            }
            // Fresh slab: append-only arena, never unmapped (header
            // comment). ::operator new keeps alignment simple and the
            // call is once per kSlabBytes of live descriptors.
            d.carve = static_cast<char*>(::operator new(kSlabBytes));
            d.carve_end = d.carve + kSlabBytes;
            global().slab_bytes.fetch_add(kSlabBytes,
                                          std::memory_order_relaxed);
        }
        m.blocks[m.count++] = d.carve;
        d.carve += block;
    }
    m.fresh = m.count;
}

/// Slow path of unit_cache_alloc: both thread magazines are empty. Swap an
/// empty magazine shell for a loaded one at the current domain's depot
/// (carving from the slab arena when nothing has been freed yet).
void refill(ThreadCache& tc, std::size_t c) {
    const bool audited = arch::audit::enabled();
    Global& g = global();
    const std::size_t dom = current_domain();
    tc.last_domain = dom;
    DomainDepot& d = g.depots[dom];
    if (audited) {
        arch::audit::count_rmw();  // the depot lock
    }
    std::lock_guard guard(d.lock);
    if (tc.cur[c] != nullptr) {
        d.empties.push_back(tc.cur[c]);  // return the dry shell
        tc.cur[c] = nullptr;
    }
    if (!d.loaded[c].empty()) {
        tc.cur[c] = d.loaded[c].back();
        d.loaded[c].pop_back();
        return;
    }
    Magazine* m;
    if (!d.empties.empty()) {
        m = d.empties.back();
        d.empties.pop_back();
    } else {
        m = new Magazine;  // shells are reused forever, like the slabs
    }
    carve_into(d, c, *m);
    tc.cur[c] = m;
}

/// Slow path of unit_cache_free: both thread magazines are full. Push one
/// full magazine to the depot and take an empty shell back.
void drain(ThreadCache& tc, std::size_t c) {
    Magazine* full = tc.prev[c];
    tc.prev[c] = tc.cur[c];
    tc.cur[c] = nullptr;
    const bool audited = arch::audit::enabled();
    Global& g = global();
    const std::size_t dom = current_domain();
    tc.last_domain = dom;
    DomainDepot& d = g.depots[dom];
    if (audited) {
        arch::audit::count_rmw();
    }
    std::lock_guard guard(d.lock);
    if (full != nullptr) {
        d.loaded[c].push_back(full);
    }
    if (!d.empties.empty()) {
        tc.cur[c] = d.empties.back();
        d.empties.pop_back();
    } else {
        tc.cur[c] = new Magazine;
    }
}

}  // namespace

void* unit_cache_alloc(std::size_t size) {
    if (size == 0 || size > kMaxCached) {
        return ::operator new(size);
    }
    const bool audited = arch::audit::enabled();
    const std::uint64_t t0 = audited ? arch::rdtsc() : 0;
    const std::size_t c = class_index(size);
    ThreadCache& tc = thread_cache();
    Magazine* m = tc.cur[c];
    if (m == nullptr || m->count == 0) {
        if (tc.prev[c] != nullptr && tc.prev[c]->count > 0) {
            // Magazine exchange: the classic two-magazine hysteresis that
            // stops an alloc/free ping-pong at a boundary from hitting the
            // depot every time.
            std::swap(tc.cur[c], tc.prev[c]);
        } else {
            refill(tc, c);
        }
        m = tc.cur[c];
    }
    void* p = m->blocks[--m->count];
    tc.stats.add(arch::telemetry::kUnitCacheAllocs);
    tc.stats.add(m->count < m->fresh ? arch::telemetry::kUnitCacheMisses
                                     : arch::telemetry::kUnitCacheHits);
    m->fresh = std::min(m->fresh, m->count);
    if (audited) {
        arch::audit::count_alloc_ticks(arch::rdtsc() - t0);
    }
    return p;
}

void unit_cache_free(void* ptr, std::size_t size) noexcept {
    if (ptr == nullptr) {
        return;
    }
    if (size == 0 || size > kMaxCached) {
        ::operator delete(ptr);
        return;
    }
    const std::size_t c = class_index(size);
    ThreadCache& tc = thread_cache();
    Magazine* m = tc.cur[c];
    if (m == nullptr || m->count == kMagazineCap) {
        if (tc.prev[c] != nullptr && tc.prev[c]->count < kMagazineCap) {
            std::swap(tc.cur[c], tc.prev[c]);
        } else {
            drain(tc, c);
        }
        m = tc.cur[c];
    }
    m->blocks[m->count++] = ptr;
}

void unit_cache_configure_domains(std::size_t num_domains) noexcept {
    std::size_t n = num_domains == 0 ? 1 : num_domains;
    if (n > kMaxDomains) {
        n = kMaxDomains;
    }
    // Only ever grow: another live runtime may already route to the higher
    // domains, and shrinking would strand their depots' blocks.
    Global& g = global();
    std::size_t cur = g.num_domains.load(std::memory_order_relaxed);
    while (n > cur &&
           !g.num_domains.compare_exchange_weak(cur, n,
                                                std::memory_order_relaxed)) {
    }
}

std::size_t unit_cache_num_domains() noexcept {
    return global().num_domains.load(std::memory_order_relaxed);
}

std::size_t unit_cache_magazine_cap() noexcept { return kMagazineCap; }

std::uint64_t unit_cache_slab_bytes() noexcept {
    return global().slab_bytes.load(std::memory_order_relaxed);
}

}  // namespace lwt::core
