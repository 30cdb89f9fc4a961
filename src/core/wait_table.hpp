// wait_table.hpp — futex-style, address-keyed parking for blocking sync.
//
// The table generalises the Qthreads full/empty-bit idea: ANY word in the
// process can become a blocking point, keyed by its address, without the
// word itself growing a waiter queue. Waiters park on a sharded intrusive
// FIFO; wakers unpark by address. The shape is the classic parking-lot /
// futex wait-queue: validation runs under the shard lock, so a waker that
// changes the waited-on state *before* calling unpark() can never lose a
// wakeup (the waiter either re-validates and refuses to park, or is already
// queued and gets dequeued).
//
// Waiters are ordinary SyncWaiter nodes (core/waiter.hpp) tagged with the
// key, armed and blocked by a SyncBlocker: a ULT suspends through its
// scheduler, an attached stream's thread parks lot-routed while it keeps
// serving its pools, a plain thread sleeps on its parker. The lifetime
// contract is SyncWaiter's: a registered waiter never returns from
// park_if() before its wake, and unpark() reads a node's `next` BEFORE
// waking it. The KEY is only ever compared as a value — unpark(addr) after
// the word itself has been destroyed is safe, exactly like FUTEX_WAKE on a
// stale address.
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/waiter.hpp"
#include "sync/spinlock.hpp"

namespace lwt::core {

/// Sharded address-keyed wait queue (process-wide singleton).
class WaitTable {
  public:
    static constexpr std::size_t kShards = 64;

    WaitTable() = default;
    WaitTable(const WaitTable&) = delete;
    WaitTable& operator=(const WaitTable&) = delete;

    static WaitTable& instance();

    /// Park the caller on `key` iff `still_blocked(ctx)` holds under the
    /// shard lock. Returns false immediately (no block) when validation
    /// fails; returns true after a waker's unpark. Callers loop: park_if
    /// gives one sleep per state observation, not a predicate wait.
    bool park_if(const void* key, bool (*still_blocked)(void*), void* ctx);

    /// Wake up to `max_wake` waiters parked on `key` (FIFO). Returns the
    /// number woken. Change the waited-on state BEFORE calling this.
    std::size_t unpark(const void* key, std::size_t max_wake = SIZE_MAX);

    /// Waiters currently parked on `key` (tests/diagnostics only).
    [[nodiscard]] std::size_t waiters(const void* key) const;

  private:
    struct Shard {
        mutable sync::Spinlock lock;
        SyncWaiterList waiters;  ///< guarded by lock
    };

    Shard& shard_for(const void* key) {
        const auto k = reinterpret_cast<std::uintptr_t>(key);
        return shards_[(k >> 3) % kShards];
    }
    const Shard& shard_for(const void* key) const {
        const auto k = reinterpret_cast<std::uintptr_t>(key);
        return shards_[(k >> 3) % kShards];
    }

    Shard shards_[kShards];
};

}  // namespace lwt::core
