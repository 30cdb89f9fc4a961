#include "core/wait_table.hpp"

#include <mutex>

namespace lwt::core {

WaitTable& WaitTable::instance() {
    static WaitTable table;
    return table;
}

bool WaitTable::park_if(const void* key, bool (*still_blocked)(void*),
                        void* ctx) {
    Shard& sh = shard_for(key);
    SyncBlocker blocker;
    SyncWaiter node;
    node.key = key;
    blocker.prepare(node);
    {
        std::lock_guard g(sh.lock);
        if (!still_blocked(ctx)) {
            blocker.cancel(node);
            return false;
        }
        sh.waiters.push_back(&node);
    }
    blocker.wait();
    return true;
}

std::size_t WaitTable::unpark(const void* key, std::size_t max_wake) {
    Shard& sh = shard_for(key);
    SyncWaiter* chain;
    std::size_t woken = 0;
    {
        std::lock_guard g(sh.lock);
        chain = sh.waiters.detach_key(key, max_wake, woken);
    }
    // Past the shard lock only waiter-owned stack memory is touched.
    wake_sync_chain(chain);
    return woken;
}

std::size_t WaitTable::waiters(const void* key) const {
    const Shard& sh = shard_for(key);
    std::lock_guard g(sh.lock);
    std::size_t n = 0;
    for (const SyncWaiter* w = sh.waiters.front(); w != nullptr; w = w->next) {
        if (w->key == key) {
            ++n;
        }
    }
    return n;
}

}  // namespace lwt::core
