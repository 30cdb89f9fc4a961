// feb.hpp — full/empty-bit word synchronisation, Qthreads style.
//
// Qthreads associates a one-bit full/empty state with any aligned machine
// word; `readFF`-family operations block until the word reaches the required
// state. The paper identifies this "free access to memory [that] requires
// hidden synchronisation" as a defining Qthreads trait and measures its join
// built on readFF. We reproduce it as a sharded hash table keyed by address:
// words are implicitly FULL until touched, exactly as in Qthreads.
//
// Blocking is delegated to core::WaitTable, the futex-style address-keyed
// parking table: a blocked readFF suspends its ULT (or parks its OS thread)
// on the word's address, and every state transition unparks that address.
// The validate-under-shard-lock protocol (core/wait_table.hpp) closes the
// wake-before-sleep window.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_map>

#include "sync/spinlock.hpp"

namespace lwt::qth {

/// Synchronised word type. Qthreads uses `aligned_t`; we mirror that.
using aligned_t = std::uint64_t;

/// Sharded full/empty-bit table. All operations are linearisable per word.
class FebTable {
  public:
    static constexpr std::size_t kShards = 64;

    FebTable() = default;
    FebTable(const FebTable&) = delete;
    FebTable& operator=(const FebTable&) = delete;

    /// Process-wide table (real Qthreads keeps one per runtime).
    static FebTable& instance();

    /// True if the word is FULL. Untracked words are FULL by definition.
    bool is_full(const aligned_t* addr);

    /// Mark FULL without touching the stored value (qthread_fill).
    void fill(aligned_t* addr);

    /// Mark EMPTY without touching the stored value (qthread_empty/purge).
    void purge(aligned_t* addr);

    /// Write the value and mark FULL regardless of prior state (writeF).
    void write_f(aligned_t* addr, aligned_t value);

    /// Wait until EMPTY, then write and mark FULL (writeEF). Blocking is
    /// suspend-based: a ULT yields its worker, an OS thread parks.
    void write_ef(aligned_t* addr, aligned_t value);

    /// Wait until FULL, read, leave FULL (readFF) — Qthreads' join primitive.
    aligned_t read_ff(const aligned_t* addr);

    /// Wait until FULL, read, mark EMPTY (readFE).
    aligned_t read_fe(aligned_t* addr);

    /// Drop tracking for a word, restoring the implicit-FULL default.
    void forget(const aligned_t* addr);

    /// Number of explicitly tracked words (test/diagnostic aid).
    std::size_t tracked() const;

  private:
    struct Shard {
        mutable sync::Spinlock lock;
        // Maps word address -> full flag. Absent means FULL.
        std::unordered_map<std::uintptr_t, bool> state;
    };

    Shard& shard_for(const aligned_t* addr) {
        const auto key = reinterpret_cast<std::uintptr_t>(addr);
        return shards_[(key >> 3) % kShards];
    }
    const Shard& shard_for(const aligned_t* addr) const {
        const auto key = reinterpret_cast<std::uintptr_t>(addr);
        return shards_[(key >> 3) % kShards];
    }

    /// True (under the FEB shard lock) iff the word is FULL. Used both
    /// directly and inside WaitTable validation callbacks; the nesting is
    /// always wait-shard lock -> FEB shard lock, never the reverse (wakers
    /// release the FEB lock before unparking), so there is no inversion.
    bool is_full_locked(Shard& sh, std::uintptr_t key);

    Shard shards_[kShards];
};

}  // namespace lwt::qth
