#include "core/sync_ult.hpp"

#include <cassert>
#include <mutex>

#include "arch/cpu.hpp"
#include "core/xstream.hpp"

namespace lwt::core {

namespace {
/// Bounded pre-park spin for lock acquisition: short critical sections
/// usually release within this budget, and a suspend costs two context
/// switches. Deliberately small — the point of the suite is that waiters
/// beyond it park instead of burning their stream.
constexpr int kLockSpin = 32;
}  // namespace

// --- EventCounter -------------------------------------------------------------

bool EventCounter::register_waiter(WaitNode& node) noexcept {
    std::lock_guard g(guard_);
    std::int64_t s = state_.load(std::memory_order_acquire);
    for (;;) {
        if (count_of(s) <= 0) {
            return false;
        }
        // Check count > 0 and set the waiters bit in ONE atomic step: the
        // zero-crossing fetch_sub and this CAS hit the same word, so
        // either the decrement reads the bit (and drains the list we are
        // about to push onto — it must take the guard we hold) or the CAS
        // fails, we reload, see count <= 0, and never block. A separate
        // flag would leave a lost-wakeup window between check and set.
        if (state_.compare_exchange_weak(s, s | kWaitersBit,
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire)) {
            node.next = waiters_head_;
            waiters_head_ = &node;
            return true;
        }
    }
}

void EventCounter::wake_all_waiters() noexcept {
    WaitNode* head;
    {
        std::lock_guard g(guard_);
        state_.fetch_and(~kWaitersBit, std::memory_order_acq_rel);
        head = waiters_head_;
        waiters_head_ = nullptr;
    }
    // Past the guard only waiter-owned memory is touched. Each node lives
    // on its waiter's stack: read `next` BEFORE the wake — a woken waiter
    // may return from wait() and destroy its node (and the counter)
    // immediately.
    while (head != nullptr) {
        WaitNode* const next = head->next;
        if (head->kind == WaitNode::Kind::kUlt) {
            Ult::wake(static_cast<Ult*>(head->ptr));
        } else {
            static_cast<sync::ThreadParker*>(head->ptr)->notify();
        }
        head = next;
    }
}

void EventCounter::signal() noexcept {
    const std::int64_t old =
        state_.fetch_sub(kCountOne, std::memory_order_acq_rel);
    if (count_of(old) != 1) {
        return;  // not the zero crossing
    }
    // We drove the count to zero. No waiters bit: this fetch_sub was our
    // LAST access — a fast-path waiter observing value() <= 0 may already
    // be returning and destroying the counter (stack-owned WaitGroup /
    // Sinc / join_all_free shapes), so touching the guard or the list
    // here would be a use-after-free. Waiters registered: none of them
    // can return until we wake them below, so the counter stays alive
    // across the drain.
    if ((old & kWaitersBit) != 0) {
        wake_all_waiters();
    }
}

void EventCounter::wait() noexcept {
    if (value() <= 0) {
        return;
    }
    if (Ult* self = Ult::current()) {
        // A woken ULT loops: an add() may have re-raised the count between
        // our wake and this check (WaitGroup reuse), in which case we wait
        // for the next zero crossing like a fresh waiter.
        for (;;) {
            // Arm the kBlocking/kWakePending handshake BEFORE the node is
            // published: the zero-crossing drain may call Ult::wake the
            // instant the guard drops.
            self->state.store(State::kBlocking, std::memory_order_release);
            WaitNode node{WaitNode::Kind::kUlt, self};
            if (!register_waiter(node)) {
                self->state.store(State::kRunning, std::memory_order_relaxed);
                return;
            }
            self->suspend(YieldStatus::kBlocked);
            if (value() <= 0) {
                return;
            }
        }
    }
    XStream* stream = XStream::current();
    while (value() > 0) {
        sync::ThreadParker parker(stream != nullptr ? stream->parking_lot()
                                                    : nullptr);
        WaitNode node{WaitNode::Kind::kParker, &parker};
        if (!register_waiter(node)) {
            return;
        }
        // Registered: we must not let `parker`/`node` die until
        // notified() — the zero-crossing signaller holds pointers to both.
        // An attached stream (typically the primary) keeps serving its
        // pools meanwhile; re-check after either: the counter may have
        // been re-armed.
        if (stream != nullptr) {
            stream->wait_attached(parker);
        } else {
            parker.wait();
        }
    }
}

// --- Mutex --------------------------------------------------------------------

void Mutex::lock() noexcept {
    if (try_lock()) {
        return;
    }
    for (int i = 0; i < kLockSpin; ++i) {
        arch::cpu_relax();
        if (try_lock()) {
            return;
        }
    }
    // Mesa retry loop: every round re-arms a fresh blocker + stack node.
    for (;;) {
        SyncBlocker blocker;
        SyncWaiter node;
        blocker.prepare(node);
        {
            std::lock_guard g(guard_);
            // Re-try under the guard: unlock() clears locked_ BEFORE its
            // guarded pop, so if this try_lock fails the current holder's
            // pop section is ordered after our push — no lost wakeup.
            if (try_lock()) {
                blocker.cancel(node);
                return;
            }
            waiters_.push_back(&node);
        }
        blocker.wait();
    }
}

void Mutex::unlock() noexcept {
    locked_.store(false, std::memory_order_release);
    SyncWaiter* next;
    {
        std::lock_guard g(guard_);
        next = waiters_.pop_front();
    }
    if (next != nullptr) {
        wake_sync_waiter(next);
    }
}

// --- Condvar ------------------------------------------------------------------

void Condvar::wait(Mutex& mutex) noexcept {
    SyncBlocker blocker;
    SyncWaiter node;
    blocker.prepare(node);
    {
        std::lock_guard g(guard_);
        waiters_.push_back(&node);
    }
    // Registered before the release: a notify issued by the next mutex
    // holder cannot miss us.
    mutex.unlock();
    blocker.wait();
    mutex.lock();
}

void Condvar::notify_one() noexcept {
    SyncWaiter* next;
    {
        std::lock_guard g(guard_);
        next = waiters_.pop_front();
    }
    if (next != nullptr) {
        wake_sync_waiter(next);
    }
}

void Condvar::notify_all() noexcept {
    SyncWaiter* chain;
    {
        std::lock_guard g(guard_);
        chain = waiters_.detach_all();
    }
    wake_sync_chain(chain);
}

// --- RwLock -------------------------------------------------------------------

void RwLock::wake_next_locked(SyncWaiter*& chain) noexcept {
    chain = nullptr;
    SyncWaiter* head = waiters_.front();
    if (head == nullptr) {
        return;
    }
    if ((head->flags & kWriterWaiter) != 0) {
        chain = waiters_.pop_front();
        chain->next = nullptr;
        return;
    }
    // Wake the run of readers at the head, up to the first queued writer.
    SyncWaiter* first = nullptr;
    SyncWaiter** tail = &first;
    while (!waiters_.empty() &&
           (waiters_.front()->flags & kWriterWaiter) == 0) {
        SyncWaiter* r = waiters_.pop_front();
        r->next = nullptr;
        *tail = r;
        tail = &r->next;
    }
    chain = first;
}

void RwLock::lock() noexcept {
    if (try_lock()) {
        return;
    }
    for (int i = 0; i < kLockSpin; ++i) {
        arch::cpu_relax();
        if (try_lock()) {
            return;
        }
    }
    // Registered in waiting_writers_ exactly while queued or re-contending:
    // the count gates fresh readers (writer preference / starvation bound)
    // and is dropped only once we own the lock.
    bool counted = false;
    for (;;) {
        SyncBlocker blocker;
        SyncWaiter node;
        node.flags = kWriterWaiter;
        blocker.prepare(node);
        {
            std::lock_guard g(guard_);
            if (try_lock()) {
                if (counted) {
                    waiting_writers_.fetch_sub(1, std::memory_order_release);
                }
                blocker.cancel(node);
                return;
            }
            if (!counted) {
                waiting_writers_.fetch_add(1, std::memory_order_release);
                counted = true;
            }
            waiters_.push_back(&node);
        }
        blocker.wait();
    }
}

void RwLock::unlock() noexcept {
    state_.fetch_and(~kWriterBit, std::memory_order_release);
    SyncWaiter* chain;
    {
        std::lock_guard g(guard_);
        wake_next_locked(chain);
    }
    wake_sync_chain(chain);
}

void RwLock::lock_shared() noexcept {
    if (try_lock_shared()) {
        return;
    }
    for (int i = 0; i < kLockSpin; ++i) {
        arch::cpu_relax();
        if (try_lock_shared()) {
            return;
        }
    }
    bool woken = false;  // woken readers bypass the writer-preference gate
    for (;;) {
        SyncBlocker blocker;
        SyncWaiter node;
        blocker.prepare(node);
        {
            std::lock_guard g(guard_);
            const bool gate_open =
                woken ||
                waiting_writers_.load(std::memory_order_acquire) == 0;
            if (gate_open) {
                std::uint32_t s = state_.load(std::memory_order_relaxed);
                bool acquired = false;
                while ((s & kWriterBit) == 0) {
                    if (state_.compare_exchange_weak(
                            s, s + kReaderOne, std::memory_order_acquire,
                            std::memory_order_relaxed)) {
                        acquired = true;
                        break;
                    }
                }
                if (acquired) {
                    blocker.cancel(node);
                    return;
                }
            }
            waiters_.push_back(&node);
        }
        blocker.wait();
        woken = true;
    }
}

void RwLock::unlock_shared() noexcept {
    const std::uint32_t old =
        state_.fetch_sub(kReaderOne, std::memory_order_release);
    if (old != kReaderOne) {
        return;  // not the last reader
    }
    // Reader count hit zero: hand the lock to the head of the queue
    // (typically the writer whose registration stopped reader inflow).
    SyncWaiter* chain;
    {
        std::lock_guard g(guard_);
        wake_next_locked(chain);
    }
    wake_sync_chain(chain);
}

// --- Semaphore ----------------------------------------------------------------

void Semaphore::acquire() noexcept {
    if (try_acquire()) {
        return;
    }
    for (int i = 0; i < kLockSpin; ++i) {
        arch::cpu_relax();
        if (try_acquire()) {
            return;
        }
    }
    for (;;) {
        SyncBlocker blocker;
        SyncWaiter node;
        blocker.prepare(node);
        {
            std::lock_guard g(guard_);
            // Same no-lost-wakeup shape as Mutex: release() adds the count
            // before its guarded pop, so a failed try here orders our push
            // before that pop.
            if (try_acquire()) {
                blocker.cancel(node);
                return;
            }
            waiters_.push_back(&node);
        }
        blocker.wait();
    }
}

void Semaphore::release(std::int64_t n) noexcept {
    count_.fetch_add(n, std::memory_order_release);
    SyncWaiter* chain = nullptr;
    SyncWaiter** tail = &chain;
    {
        std::lock_guard g(guard_);
        for (std::int64_t i = 0; i < n; ++i) {
            SyncWaiter* w = waiters_.pop_front();
            if (w == nullptr) {
                break;
            }
            w->next = nullptr;
            *tail = w;
            tail = &w->next;
        }
    }
    wake_sync_chain(chain);
}

// --- UltBarrier ---------------------------------------------------------------

void UltBarrier::arrive_and_wait() noexcept {
    if (participants_ <= 1) {
        generation_.fetch_add(1, std::memory_order_release);
        return;
    }
    SyncBlocker blocker;
    SyncWaiter node;
    blocker.prepare(node);
    bool last = false;
    SyncWaiter* chain = nullptr;
    {
        std::lock_guard g(guard_);
        if (++arrived_ == participants_) {
            // Round complete. Reset under the guard so the barrier is
            // reusable before any waiter has even woken (generation
            // discipline): a woken participant re-arriving sees a clean
            // arrival count and queues for the NEXT round.
            arrived_ = 0;
            generation_.fetch_add(1, std::memory_order_release);
            chain = waiters_.detach_all();
            blocker.cancel(node);
            last = true;
        } else {
            waiters_.push_back(&node);
        }
    }
    if (last) {
        // Each node is woken exactly once, for exactly its own round — no
        // generation re-check loop needed at the waiter.
        wake_sync_chain(chain);
        return;
    }
    blocker.wait();
}

}  // namespace lwt::core
