#include "arch/audit.hpp"

#include <mutex>
#include <vector>

#include "arch/settings.hpp"
#include "sync/spinlock.hpp"

namespace lwt::arch::audit {
namespace {

// Shard registry. Both the vector and the shards are leaked on purpose:
// threads may exit (running the thread_local destructor chain) during
// static destruction, and snapshot() must keep seeing their totals.
struct Registry {
    sync::Spinlock lock;
    std::vector<detail::Shard*> shards;
};

Registry& registry() {
    static Registry* r = new Registry;
    return *r;
}

}  // namespace

namespace detail {

Shard& shard_for_this_thread() {
    thread_local Shard* shard = [] {
        auto* s = new Shard;  // leaked: totals outlive the thread
        Registry& r = registry();
        std::lock_guard guard(r.lock);
        r.shards.push_back(s);
        return s;
    }();
    return *shard;
}

bool enabled_slow() noexcept {
    ensure_settings_loaded();  // publishes Settings::create_audit
    return cached_flag().load(std::memory_order_relaxed) > 0;
}

}  // namespace detail

void force_enable(bool on) noexcept {
    detail::cached_flag().store(on ? 1 : 0, std::memory_order_relaxed);
}

Snapshot snapshot() noexcept {
    Snapshot total;
    Registry& r = registry();
    std::lock_guard guard(r.lock);
    for (const detail::Shard* s : r.shards) {
        total.rmw += s->rmw.load(std::memory_order_relaxed);
        total.alloc_ticks += s->alloc_ticks.load(std::memory_order_relaxed);
        total.alloc_samples +=
            s->alloc_samples.load(std::memory_order_relaxed);
    }
    return total;
}

void reset() noexcept {
    Registry& r = registry();
    std::lock_guard guard(r.lock);
    for (detail::Shard* s : r.shards) {
        s->rmw.store(0, std::memory_order_relaxed);
        s->alloc_ticks.store(0, std::memory_order_relaxed);
        s->alloc_samples.store(0, std::memory_order_relaxed);
    }
}

}  // namespace lwt::arch::audit
