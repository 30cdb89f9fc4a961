#include "qth/feb.hpp"

#include "arch/cpu.hpp"
#include "core/wait_table.hpp"

namespace lwt::qth {

namespace {
/// Bounded pre-park spin: most FEB handoffs (producer/consumer alternation)
/// resolve within a few hundred cycles; spin that long before paying for a
/// suspend. Matches the spin-then-suspend discipline in core/wait_word.
constexpr int kFebSpin = 64;
}  // namespace

FebTable& FebTable::instance() {
    static FebTable table;
    return table;
}

bool FebTable::is_full_locked(Shard& sh, std::uintptr_t key) {
    const auto it = sh.state.find(key);
    return it == sh.state.end() || it->second;
}

bool FebTable::is_full(const aligned_t* addr) {
    Shard& sh = shard_for(addr);
    std::lock_guard guard(sh.lock);
    return is_full_locked(sh, reinterpret_cast<std::uintptr_t>(addr));
}

void FebTable::fill(aligned_t* addr) {
    Shard& sh = shard_for(addr);
    {
        std::lock_guard guard(sh.lock);
        sh.state[reinterpret_cast<std::uintptr_t>(addr)] = true;
    }
    core::WaitTable::instance().unpark(addr);
}

void FebTable::purge(aligned_t* addr) {
    Shard& sh = shard_for(addr);
    {
        std::lock_guard guard(sh.lock);
        sh.state[reinterpret_cast<std::uintptr_t>(addr)] = false;
    }
    core::WaitTable::instance().unpark(addr);
}

void FebTable::write_f(aligned_t* addr, aligned_t value) {
    Shard& sh = shard_for(addr);
    {
        std::lock_guard guard(sh.lock);
        *addr = value;
        sh.state[reinterpret_cast<std::uintptr_t>(addr)] = true;
    }
    core::WaitTable::instance().unpark(addr);
}

namespace {
struct FebWaitCtx {
    FebTable* table;
    const aligned_t* addr;
    bool (*blocked)(FebTable&, const aligned_t*);
};
bool feb_still_blocked(void* c) {
    auto* ctx = static_cast<FebWaitCtx*>(c);
    return ctx->blocked(*ctx->table, ctx->addr);
}
}  // namespace

void FebTable::write_ef(aligned_t* addr, aligned_t value) {
    Shard& sh = shard_for(addr);
    const auto key = reinterpret_cast<std::uintptr_t>(addr);
    int spins = 0;
    for (;;) {
        bool written = false;
        {
            std::lock_guard guard(sh.lock);
            auto [it, inserted] = sh.state.try_emplace(key, true);
            if (!it->second) {  // EMPTY: we may write
                *addr = value;
                it->second = true;
                written = true;
            }
        }
        if (written) {
            // EMPTY->FULL transition: wake blocked readFF/readFE. Outside
            // the FEB lock — unpark takes the wait-shard lock and the
            // validation path nests the locks the other way around.
            core::WaitTable::instance().unpark(addr);
            return;
        }
        if (spins++ < kFebSpin) {
            arch::cpu_relax();
            continue;
        }
        FebWaitCtx ctx{this, addr, [](FebTable& t, const aligned_t* a) {
                           Shard& s = t.shard_for(a);
                           std::lock_guard g(s.lock);
                           return t.is_full_locked(
                               s, reinterpret_cast<std::uintptr_t>(a));
                       }};
        core::WaitTable::instance().park_if(addr, &feb_still_blocked, &ctx);
    }
}

aligned_t FebTable::read_ff(const aligned_t* addr) {
    Shard& sh = shard_for(addr);
    const auto key = reinterpret_cast<std::uintptr_t>(addr);
    int spins = 0;
    for (;;) {
        {
            std::lock_guard guard(sh.lock);
            if (is_full_locked(sh, key)) {
                return *addr;
            }
        }
        if (spins++ < kFebSpin) {
            arch::cpu_relax();
            continue;
        }
        FebWaitCtx ctx{this, addr, [](FebTable& t, const aligned_t* a) {
                           Shard& s = t.shard_for(a);
                           std::lock_guard g(s.lock);
                           return !t.is_full_locked(
                               s, reinterpret_cast<std::uintptr_t>(a));
                       }};
        core::WaitTable::instance().park_if(addr, &feb_still_blocked, &ctx);
    }
}

aligned_t FebTable::read_fe(aligned_t* addr) {
    Shard& sh = shard_for(addr);
    const auto key = reinterpret_cast<std::uintptr_t>(addr);
    int spins = 0;
    for (;;) {
        bool consumed = false;
        aligned_t value = 0;
        {
            std::lock_guard guard(sh.lock);
            auto [it, inserted] = sh.state.try_emplace(key, true);
            if (it->second) {  // FULL: consume
                value = *addr;
                it->second = false;
                consumed = true;
            }
        }
        if (consumed) {
            // FULL->EMPTY transition: wake writers blocked in write_ef
            // (outside the FEB lock; see write_ef for the ordering rule).
            core::WaitTable::instance().unpark(addr);
            return value;
        }
        if (spins++ < kFebSpin) {
            arch::cpu_relax();
            continue;
        }
        FebWaitCtx ctx{this, addr, [](FebTable& t, const aligned_t* a) {
                           Shard& s = t.shard_for(a);
                           std::lock_guard g(s.lock);
                           return !t.is_full_locked(
                               s, reinterpret_cast<std::uintptr_t>(a));
                       }};
        core::WaitTable::instance().park_if(addr, &feb_still_blocked, &ctx);
    }
}

void FebTable::forget(const aligned_t* addr) {
    Shard& sh = shard_for(addr);
    {
        std::lock_guard guard(sh.lock);
        sh.state.erase(reinterpret_cast<std::uintptr_t>(addr));
    }
    // Erasure restores implicit-FULL: wake blocked readers.
    core::WaitTable::instance().unpark(addr);
}

std::size_t FebTable::tracked() const {
    std::size_t total = 0;
    for (const Shard& sh : shards_) {
        std::lock_guard guard(sh.lock);
        total += sh.state.size();
    }
    return total;
}

}  // namespace lwt::qth
