#include "arch/telemetry.hpp"

#include <mutex>
#include <vector>

#include "sync/spinlock.hpp"

namespace lwt::arch::telemetry {
namespace {

// Leaked: threads exit during static destruction.
struct Registry {
    sync::Spinlock lock;
    std::vector<Shard*> shards;  // every shard ever claimed
    std::vector<Shard*> free;    // released by exited threads
};

Registry& registry() {
    static Registry* r = new Registry;
    return *r;
}

thread_local constinit Shard* tl_shard = nullptr;

/// Hands the shard back at thread exit (a record later in the exit
/// sequence claims another, which is then never handed back).
struct Release {
    ~Release() {
        std::lock_guard guard(registry().lock);
        registry().free.push_back(tl_shard);
        tl_shard = nullptr;
    }
};

Shard& claim() {
    Registry& r = registry();
    {
        std::lock_guard guard(r.lock);
        if (r.free.empty()) {
            r.free.push_back(r.shards.emplace_back(new Shard));
        }
        tl_shard = r.free.back();
        r.free.pop_back();
    }
    [[maybe_unused]] static thread_local Release release;
    return *tl_shard;
}

}  // namespace

Shard& this_shard() noexcept {
    return tl_shard != nullptr ? *tl_shard : claim();
}

std::uint64_t sum(std::uint32_t c) noexcept {
    std::uint64_t total = 0;
    for_each_shard([&](const Shard& s) {
        total += s.cells[c].load(std::memory_order_relaxed);
    });
    return total;
}

void for_each_shard(const std::function<void(const Shard&)>& fn) {
    Registry& r = registry();
    std::lock_guard guard(r.lock);
    for (const Shard* s : r.shards) {
        fn(*s);
    }
}

}  // namespace lwt::arch::telemetry
