#include "core/join.hpp"

#include <atomic>
#include <cassert>
#include <thread>

#include "arch/cpu.hpp"
#include "core/metrics.hpp"
#include "core/pool.hpp"
#include "core/sync_ult.hpp"
#include "core/ult.hpp"
#include "core/xstream.hpp"
#include "sync/parking_lot.hpp"

namespace lwt::core {
namespace {

/// Bounded pre-registration backoff for native-thread joiners: 64
/// pipeline pauses, then a few OS yields (arch::Backoff's ladder). The
/// pauses catch a child that is terminating RIGHT NOW without paying the
/// register/notify round trip; the yields matter when threads exceed
/// cores — each one donates the joiner's quantum to the stream that must
/// finish the child, which then typically retires a whole run of units,
/// letting the next joins return on the fast path (per-join direct
/// wakeups there would force a context switch per unit). Bounded: a
/// joiner that exhausts the ladder registers and parks for its one
/// direct wake — this is never an open-ended poll.
constexpr unsigned kJoinBackoffSteps = 64 + 16;

/// A second joiner found the slot taken by the first: there is nothing
/// to register in, so it waits by yielding the stream until the unit
/// terminates (a deadlock guard, not a join path — one joiner per unit is
/// the norm). Ends by waiting out the terminator's slot publish so the
/// caller may reclaim the unit once every joiner has returned.
void wait_as_second_joiner(WorkUnit* unit) {
    if (Ult* self = Ult::current()) {
        if (unit->kind == Kind::kUlt) {
            // Joining a ULT: hand the stream to the joinee each pass (the
            // seed's myth_join shape). A plain yield would starve under
            // LIFO deques — the joiner gets re-popped ahead of the joinee
            // forever.
            Ult* target = static_cast<Ult*>(unit);
            while (!unit->terminated()) {
                (void)yield_to(target);
            }
        } else {
            while (!unit->terminated()) {
                self->yield();
            }
        }
    } else if (XStream* stream = XStream::current()) {
        stream->run_until([unit] { return unit->terminated(); });
    } else {
        while (!unit->terminated()) {
            std::this_thread::yield();
        }
    }
    unit->await_reclaim();
}

/// Install `tagged` as the unit's joiner. Returns kJoinerNone on success;
/// otherwise the value that occupied the slot (kJoinerTerminated, or a
/// competing waiter).
std::uintptr_t register_joiner(WorkUnit* unit,
                               std::uintptr_t tagged) noexcept {
    std::uintptr_t expected = kJoinerNone;
    if (unit->joiner.compare_exchange_strong(expected, tagged,
                                             std::memory_order_acq_rel,
                                             std::memory_order_acquire)) {
        return kJoinerNone;
    }
    return expected;
}

/// Stack record an OS-thread joiner registers in the slot
/// (kJoinerThreadTag): the parker plus a joiner-owned mailbox for the
/// terminator's handoff stamp. The stamp travels through waiter-owned
/// memory (never the unit) for the same reason obs_handoff_tsc lives on
/// the joining ULT — after resuming, the joiner must not touch the unit
/// at all (see join_unit).
struct alignas(8) ThreadJoinWaiter {
    sync::ThreadParker parker{nullptr};
    std::atomic<std::uint64_t> terminate_tsc{0};
};

/// Record one signal->resume sample; `stamp` comes from joiner-owned
/// memory, 0 means metrics were off at termination time.
void record_handoff_latency(std::uint64_t stamp) noexcept {
    if (stamp == 0 || !Metrics::instance().enabled()) {
        return;
    }
    static MetricsRegistry& reg = MetricsRegistry::instance();
    static LatencyHistogram& hist = reg.histogram("join.signal_resume_ticks");
    hist.record(arch::rdtsc() - stamp);
}

}  // namespace

void publish_termination(WorkUnit* unit) noexcept {
    const std::uint64_t stamp =
        Metrics::instance().enabled() ? arch::rdtsc() : 0;
    if (stamp != 0) {
        // Unit-side copy, for the joiner that notices join_done() without
        // suspending (it still owns the unit then). Must land before the
        // exchange below.
        unit->obs_terminate_tsc.store(stamp, std::memory_order_relaxed);
    }
    // The exchange is our LAST access to the unit: the instant it lands, a
    // joiner gating on join_done()/await_reclaim() may free it. Everything
    // touched below — including the stamp mailbox — is waiter-owned, never
    // unit memory, and a registered waiter cannot return (or destroy its
    // record) until the wake we issue here.
    const std::uintptr_t waiter =
        unit->joiner.exchange(kJoinerTerminated, std::memory_order_acq_rel);
    switch (waiter & kJoinerTagMask) {
        case kJoinerUltTag: {
            auto* joiner = reinterpret_cast<Ult*>(waiter & ~kJoinerTagMask);
            joiner->obs_handoff_tsc.store(stamp, std::memory_order_relaxed);
            Ult::wake(joiner);
            break;
        }
        case kJoinerThreadTag: {
            auto* record =
                reinterpret_cast<ThreadJoinWaiter*>(waiter & ~kJoinerTagMask);
            record->terminate_tsc.store(stamp, std::memory_order_relaxed);
            record->parker.notify();
            break;
        }
        case kJoinerCounterTag:
            reinterpret_cast<EventCounter*>(waiter & ~kJoinerTagMask)
                ->signal();
            break;
        default:
            break;  // kJoinerNone: nobody waiting yet
    }
}

bool register_counter_joiner(WorkUnit* unit, EventCounter* counter) noexcept {
    return register_joiner(unit,
                           reinterpret_cast<std::uintptr_t>(counter) |
                               kJoinerCounterTag) == kJoinerNone;
}

bool try_join_steal(WorkUnit* unit) {
    XStream* stream = XStream::current();
    assert(stream != nullptr);
    if (unit->state.load(std::memory_order_acquire) != State::kReady) {
        return false;
    }
    // The home_pool read races with a concurrent dispatch (relaxed by
    // design), but remove() verifies identity under the pool's own
    // synchronisation: a stale pointer simply fails to find the unit.
    Pool* pool = unit->home_pool.load(std::memory_order_relaxed);
    if (pool == nullptr || !stream->scheduler().can_run_from(pool) ||
        !pool->remove(unit)) {
        // Placement guard: a unit queued where this stream could never
        // dispatch from (another stream's private pool) must run there —
        // stealing it would silently migrate explicitly-placed work.
        return false;
    }
    // The unit is ours: it sits in no pool and no scheduler can see it.
    Ult* self = Ult::current();
    if (unit->kind == Kind::kUlt && self != nullptr) {
        // ULT joining a ULT: hand the stream to the child (yield_to shape);
        // we go back to our home pool behind it.
        stream->set_next_hint(unit);
        self->suspend(YieldStatus::kYielded);
        return true;
    }
    // Tasklet target, or a native-thread joiner driving its stream: run
    // the child inline on this stack, exactly as progress() would.
    stream->run_unit(unit);
    return true;
}

void join_unit(WorkUnit* unit) {
    if (unit == nullptr) {
        return;
    }
    assert(!unit->detached && "joining a detached unit");
    if (unit->join_done()) {
        return;
    }
    XStream* stream = XStream::current();
    bool may_steal = stream != nullptr;
    for (;;) {
        if (unit->join_done()) {
            return;
        }
        // Work-first: while the child is still queued, run it ourselves
        // instead of sleeping on it.
        if (may_steal && try_join_steal(unit)) {
            // A ULT joiner keeps re-stealing (the yield_to shape: each pass
            // hands the stream to the child again, the myth_join loop). A
            // native joiner runs the child inline at most ONCE: if it
            // yielded instead of terminating, the parked wait below drains
            // the stream's pools in order — re-stealing here would run the
            // child out of turn, jumping yield_to hints and queue order.
            if (Ult::current() == nullptr) {
                may_steal = false;
            }
            continue;
        }
        if (Ult* self = Ult::current()) {
            // Arm the kBlocking/kWakePending handshake BEFORE publishing
            // ourselves: the terminator's Ult::wake may fire the instant
            // the CAS lands, even before we reach suspend().
            self->state.store(State::kBlocking, std::memory_order_release);
            const std::uintptr_t prev = register_joiner(
                unit, reinterpret_cast<std::uintptr_t>(self) | kJoinerUltTag);
            if (prev == kJoinerNone) {
                self->suspend(YieldStatus::kBlocked);
                // Only the terminator's wake routes through the slot, so
                // resuming means the join is done and published. Do NOT
                // touch the unit from here on (not even to assert): a
                // concurrent second joiner can observe the publish and
                // let its caller free the unit before we are rescheduled.
                // The handoff stamp therefore arrives in OUR descriptor.
                record_handoff_latency(self->obs_handoff_tsc.exchange(
                    0, std::memory_order_relaxed));
                return;
            }
            self->state.store(State::kRunning, std::memory_order_relaxed);
            if (prev == kJoinerTerminated) {
                return;
            }
            wait_as_second_joiner(unit);
            return;
        }
        // OS-thread joiner. Help-first: while this stream still holds
        // runnable work, run it instead of registering — every unit run
        // is progress the workload needs, on FIFO pools the joinee
        // surfaces in queue order anyway, and fine-grained join storms
        // never pay the register/notify round trip while queues are
        // nonempty. Only when the stream runs DRY does the joiner
        // register once and wait for one direct wake — no idle ladder.
        if (stream != nullptr && stream->progress()) {
            continue;
        }
        // Backoff-then-suspend (see kJoinBackoffSteps). A ULT joiner
        // never spins: suspending it is cheap and frees the stream for
        // other work.
        arch::Backoff backoff;
        for (unsigned step = 0; step < kJoinBackoffSteps; ++step) {
            backoff.pause();
            if (unit->join_done()) {
                // We never suspended, so OUR caller still owns the unit
                // until we return — reading the unit-side stamp here is
                // as safe as the join_done load itself (plain load, not
                // exchange: a degraded second joiner at worst records a
                // duplicate sample, never writes freed memory).
                record_handoff_latency(unit->obs_terminate_tsc.load(
                    std::memory_order_relaxed));
                return;
            }
        }
        // Bare parker even for attached streams: the termination then
        // wakes exactly this thread (one condvar signal) instead of
        // broadcasting on the runtime lot, which would wake every parked
        // stream per join — a context-switch storm on oversubscribed
        // hosts. XStream::wait_attached still serves the stream's pools
        // between bounded naps, so a private-pool chain that needs this
        // thread is not starved.
        ThreadJoinWaiter waiter;
        const std::uintptr_t prev = register_joiner(
            unit,
            reinterpret_cast<std::uintptr_t>(&waiter) | kJoinerThreadTag);
        if (prev == kJoinerNone) {
            if (stream != nullptr) {
                stream->wait_attached(waiter.parker);
            } else {
                waiter.parker.wait();
            }
            // As on the ULT path: no unit access after the wake — the
            // stamp arrives in our stack record.
            record_handoff_latency(
                waiter.terminate_tsc.load(std::memory_order_relaxed));
            return;
        }
        if (prev == kJoinerTerminated) {
            return;
        }
        wait_as_second_joiner(unit);
        return;
    }
}

}  // namespace lwt::core
