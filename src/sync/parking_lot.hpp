// parking_lot.hpp — eventcount-style parking for idle execution streams.
//
// An idle stream that has exhausted its spin/backoff budget blocks here
// until a producer publishes work. The protocol is the classic eventcount
// (Vyukov): waiters take a ticket (the current epoch), re-check their work
// predicate, then sleep until the epoch moves. Producers bump the epoch on
// every publish and only take the mutex when somebody is actually parked,
// so the producer fast path is one uncontended atomic RMW plus one load.
//
// "Basic Lock Algorithms in Lightweight Thread Environments" (PAPERS.md)
// motivates the discipline: unconditional spinning wastes the cores the
// paper's Figures 4-8 measure, while naive sleeping loses wakeups; the
// epoch handshake gives both liveness and an idle CPU.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>

#include "arch/cpu.hpp"

namespace lwt::sync {

/// Shared wait point for parked streams. One lot typically serves one
/// runtime instance (all its pools notify the same lot; any parked stream
/// may be the right one to wake, so wakeups are broadcast).
class ParkingLot {
  public:
    ParkingLot() = default;
    ParkingLot(const ParkingLot&) = delete;
    ParkingLot& operator=(const ParkingLot&) = delete;

    /// Producer side: publish-then-notify. Call AFTER the work is visible
    /// in its queue, never before — the waiter's re-check must be able to
    /// see it. Cheap when nobody is parked.
    void notify_all() noexcept {
        // The epoch bump must precede the waiter check: a waiter that
        // registered after our bump re-reads the queues and finds the work;
        // a waiter that registered before it sees the epoch move and wakes.
        epoch_.fetch_add(1, std::memory_order_acq_rel);
        if (waiters_.load(std::memory_order_acquire) > 0) {
            notifies_.fetch_add(1, std::memory_order_relaxed);
            // Taking the mutex fences against a waiter between its epoch
            // re-check and the actual block; without it the notify could
            // fall into that window and be lost.
            std::lock_guard<std::mutex> guard(mutex_);
            cv_.notify_all();
        }
    }

    /// Like notify_all(), but wakes at most ONE parked waiter. Correct
    /// only when any parked consumer can make progress on the published
    /// work (a pool every consumer drains); keep notify_all for private
    /// pools, bulk publishes, and teardown. Each parked waiter this call
    /// leaves asleep is counted in wakeups_avoided() — the thundering-herd
    /// cost the broadcast path would have paid.
    void notify_one() noexcept {
        epoch_.fetch_add(1, std::memory_order_acq_rel);
        const std::uint64_t parked = waiters_.load(std::memory_order_acquire);
        if (parked > 0) {
            notifies_.fetch_add(1, std::memory_order_relaxed);
            if (parked > 1) {
                wakeups_avoided_.fetch_add(parked - 1,
                                           std::memory_order_relaxed);
            }
            std::lock_guard<std::mutex> guard(mutex_);
            cv_.notify_one();
        }
    }

    /// Waiter side, step 1: register interest and take a ticket. Must be
    /// followed by re-checking the work predicate, then either park() or
    /// cancel_park().
    [[nodiscard]] std::uint64_t prepare_park() noexcept {
        waiters_.fetch_add(1, std::memory_order_acq_rel);
        return epoch_.load(std::memory_order_acquire);
    }

    /// Waiter side: abandon a prepare_park() (the re-check found work).
    void cancel_park() noexcept {
        waiters_.fetch_sub(1, std::memory_order_release);
    }

    /// Waiter side, step 2: block until the epoch leaves `ticket` or the
    /// timeout elapses (safety net against producers that bypass the lot).
    /// Returns true when woken by a notify, false on timeout.
    bool park(std::uint64_t ticket, std::chrono::microseconds timeout) {
        bool notified;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            notified = cv_.wait_for(lock, timeout, [&] {
                return epoch_.load(std::memory_order_acquire) != ticket;
            });
        }
        waiters_.fetch_sub(1, std::memory_order_release);
        return notified;
    }

    /// Current epoch: bumped exactly once per notify_all(), whether or not
    /// anyone was parked. Tests use the delta to assert how many notifies a
    /// code path issued (e.g. push_bulk's one-notify-per-batch contract).
    [[nodiscard]] std::uint64_t epoch() const noexcept {
        return epoch_.load(std::memory_order_acquire);
    }

    /// Streams currently inside prepare_park()/park() (diagnostics).
    [[nodiscard]] std::uint64_t waiters() const noexcept {
        return waiters_.load(std::memory_order_acquire);
    }

    /// Notifies that found at least one parked waiter (diagnostics).
    [[nodiscard]] std::uint64_t notifies() const noexcept {
        return notifies_.load(std::memory_order_relaxed);
    }

    /// Parked waiters a notify_one() deliberately left asleep — the
    /// wakeups the old broadcast-on-every-push behaviour would have paid.
    [[nodiscard]] std::uint64_t wakeups_avoided() const noexcept {
        return wakeups_avoided_.load(std::memory_order_relaxed);
    }

    /// Zero the diagnostic counters (NOT the epoch: parked tickets depend
    /// on it). Runtime::reset_stats scopes bench measurements with this.
    void reset_wake_stats() noexcept {
        notifies_.store(0, std::memory_order_relaxed);
        wakeups_avoided_.store(0, std::memory_order_relaxed);
    }

  private:
    alignas(arch::kCacheLine) std::atomic<std::uint64_t> epoch_{0};
    alignas(arch::kCacheLine) std::atomic<std::uint64_t> waiters_{0};
    std::atomic<std::uint64_t> notifies_{0};
    std::atomic<std::uint64_t> wakeups_avoided_{0};
    std::mutex mutex_;
    std::condition_variable cv_;
};

/// One-shot waiter for an OS thread blocked in a join or counter wait (the
/// non-ULT side of the direct-handoff protocol, docs/join_path.md). Two
/// routings:
///
///  - bare (lot == nullptr): notify() flips the flag and signals the
///    condvar; wait()/wait_for() block on it. Used by threads that are not
///    execution streams (e.g. the Go-personality main thread).
///  - lot-routed (lot != nullptr): notify() flips the flag and broadcasts
///    on the given ParkingLot instead. An *attached stream* waiter parks on
///    its runtime's lot so BOTH pool pushes and the termination wake it —
///    it keeps draining its pools while waiting (XStream::wait_attached).
///
/// Lifetime: the waiter owns the parker (stack allocation) and must not
/// return until notified() is true; notify() reads the lot pointer before
/// publishing the flag and touches only the (longer-lived) lot afterwards,
/// and the bare path signals under the mutex, which the destructor takes
/// too, so notify() never touches a destroyed parker.
class ThreadParker {
  public:
    explicit ThreadParker(ParkingLot* lot = nullptr) noexcept : lot_(lot) {}
    ThreadParker(const ThreadParker&) = delete;
    ThreadParker& operator=(const ThreadParker&) = delete;

    /// Waits out a bare-path notify() still inside its critical section: a
    /// waiter may see notified() without the mutex (the attached-stream
    /// wait, XStream::wait_attached, polls it between progress() calls
    /// and during its pre-park spin) and destroy the parker while the
    /// notifier still has the condvar to signal. A lot-routed notify()
    /// never touches the mutex.
    ~ThreadParker() {
        if (lot_ == nullptr) {
            std::lock_guard<std::mutex> guard(mutex_);
        }
    }

    [[nodiscard]] bool notified() const noexcept {
        return done_.load(std::memory_order_acquire);
    }

    [[nodiscard]] ParkingLot* lot() const noexcept { return lot_; }

    /// Waker side; callable exactly once, from any thread.
    void notify() noexcept {
        ParkingLot* lot = lot_;  // before the store: the waiter may return
                                 // (and destroy us) the moment done_ flips
        if (lot != nullptr) {
            done_.store(true, std::memory_order_release);
            lot->notify_all();
            return;
        }
        // Signal while holding the mutex: the waiter cannot re-check the
        // flag and return (destroying us) before we are done touching the
        // condvar.
        std::lock_guard<std::mutex> guard(mutex_);
        done_.store(true, std::memory_order_release);
        cv_.notify_one();
    }

    /// Block until notified. Bare parkers only — a lot-routed waiter must
    /// park on the lot (notify() never signals the member condvar then).
    void wait() {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [this] { return notified(); });
    }

    /// Bounded block; returns notified(). Used as the safety net when an
    /// attached stream waits without a lot (progress-drive loop).
    bool wait_for(std::chrono::microseconds timeout) {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait_for(lock, timeout, [this] { return notified(); });
        return notified();
    }

  private:
    ParkingLot* const lot_;
    std::atomic<bool> done_{false};
    std::mutex mutex_;
    std::condition_variable cv_;
};

}  // namespace lwt::sync
