// Tests for the direct-handoff join path (core/join.hpp,
// docs/join_path.md): joiner-slot registration and wake-on-terminate,
// join-stealing, the suspend-based EventCounter, ThreadParker, the
// ParkingLot notify_one herd-avoidance, the second-joiner degrade path —
// plus each personality's join workload checked against its known answer.
//
// TSan builds (tools/tsan.sh) run this file too: TSan cannot follow
// fcontext switches, so every test that suspends/resumes a ULT is gated
// out under thread sanitizer. Tasklet and OS-thread protocol tests — the
// racy part of the handoff machinery — all stay enabled.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "abt/abt.hpp"
#include "core/future.hpp"
#include "core/join.hpp"
#include "core/metrics.hpp"
#include "core/pool.hpp"
#include "core/runtime.hpp"
#include "core/sync_ult.hpp"
#include "core/ult.hpp"
#include "core/work_unit.hpp"
#include "core/xstream.hpp"
#include "cvt/cvt.hpp"
#include "gol/gol.hpp"
#include "mth/mth.hpp"
#include "qth/qth.hpp"
#include "sync/parking_lot.hpp"

#if defined(__SANITIZE_THREAD__)
#define LWT_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define LWT_TSAN 1
#endif
#endif

namespace {

// --- kernel-level protocol ---------------------------------------------------

TEST(JoinCore, NotifyOneCountsAvoidedWakeups) {
    lwt::sync::ParkingLot lot;
    std::atomic<bool> release{false};
    auto parked_waiter = [&] {
        while (!release.load()) {
            const std::uint64_t ticket = lot.prepare_park();
            if (release.load()) {
                lot.cancel_park();
                break;
            }
            (void)lot.park(ticket, std::chrono::microseconds(100000));
        }
    };
    std::thread t1(parked_waiter);
    std::thread t2(parked_waiter);
    while (lot.waiters() < 2) {
        std::this_thread::yield();
    }
    EXPECT_EQ(lot.wakeups_avoided(), 0u);
    lot.notify_one();  // two parked, one woken: one avoided wakeup
    EXPECT_EQ(lot.wakeups_avoided(), 1u);
    release.store(true);
    lot.notify_all();
    t1.join();
    t2.join();
    lot.reset_wake_stats();
    EXPECT_EQ(lot.wakeups_avoided(), 0u);
}

TEST(JoinCore, ThreadParkerBareRoundTrip) {
    lwt::sync::ThreadParker parker;
    std::thread waker([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        parker.notify();
    });
    parker.wait();
    EXPECT_TRUE(parker.notified());
    waker.join();
}

TEST(JoinCore, BareParkerOutlivesNotifyUnderLockFreeCheck) {
    // OS threads only (TSan-safe). The attached-stream join wait polls
    // notified() without the parker's mutex, so it can see the flag, return
    // and destroy the parker while notify() still holds the mutex with the
    // condvar left to signal. Heap parkers make a premature free visible
    // to the sanitizers; in a plain build the reused memory could hang the
    // notifier.
    for (int round = 0; round < 2000; ++round) {
        auto parker = std::make_unique<lwt::sync::ThreadParker>();
        std::thread waker([p = parker.get()] { p->notify(); });
        while (!parker->notified()) {
        }
        parker.reset();
        waker.join();
    }
}

TEST(JoinCore, PlainThreadJoinerIsWokenDirectly) {
    // A joiner that is not an execution stream blocks on a bare
    // ThreadParker; the terminating stream's publish must wake it and
    // leave the unit reclaimable (join_done).
    lwt::core::DequePool pool;
    auto stream = std::make_unique<lwt::core::XStream>(
        0, std::make_unique<lwt::core::Scheduler>(
               std::vector<lwt::core::Pool*>{&pool}));
    stream->start();
    auto* unit = new lwt::core::Tasklet(
        [] { std::this_thread::sleep_for(std::chrono::milliseconds(5)); });
    pool.push(unit);
    lwt::core::join_unit(unit);
    EXPECT_TRUE(unit->join_done());
    delete unit;
    stream->stop_and_join();
}

TEST(JoinCore, JoinStealRunsQueuedTaskletInline) {
    // Joiner on an attached stream + unit still kReady in a removable pool
    // the joiner's scheduler drains => the joiner pulls it and runs it on
    // its own stack (work-first), no parking, no second thread involved.
    lwt::core::DequePool pool;
    lwt::core::XStream stream(0, std::make_unique<lwt::core::Scheduler>(
                                     std::vector<lwt::core::Pool*>{&pool}));
    stream.attach_caller();
    std::thread::id ran_on;
    auto* unit =
        new lwt::core::Tasklet([&] { ran_on = std::this_thread::get_id(); });
    pool.push(unit);
    lwt::core::join_unit(unit);
    EXPECT_TRUE(unit->join_done());
    EXPECT_EQ(ran_on, std::this_thread::get_id());
    delete unit;
    stream.detach_caller();
}

TEST(JoinCore, JoinStealRespectsPlacement) {
    // The joined unit sits in a pool the joiner's scheduler can NOT
    // dispatch from (another stream's private pool): stealing it would
    // migrate explicitly-placed work, so the joiner must wait instead.
    lwt::core::DequePool mine;
    lwt::core::DequePool theirs;
    lwt::core::XStream me(0, std::make_unique<lwt::core::Scheduler>(
                                 std::vector<lwt::core::Pool*>{&mine}));
    auto other = std::make_unique<lwt::core::XStream>(
        1, std::make_unique<lwt::core::Scheduler>(
               std::vector<lwt::core::Pool*>{&theirs}));
    other->start();
    me.attach_caller();
    std::thread::id ran_on;
    auto* unit =
        new lwt::core::Tasklet([&] { ran_on = std::this_thread::get_id(); });
    theirs.push(unit);
    lwt::core::join_unit(unit);
    EXPECT_TRUE(unit->join_done());
    EXPECT_NE(ran_on, std::this_thread::get_id());
    delete unit;
    me.detach_caller();
    other->stop_and_join();
}

TEST(JoinCore, HandoffRecordsSignalResumeLatency) {
    // Deterministic discriminator for CI's join-smoke leg: a joiner that
    // MUST suspend (the unit runs-and-sleeps on another stream, so steal/
    // help-first/backoff all fail) records its signal→resume sample in
    // the "join.signal_resume_ns" histogram.
    // fig3's empty-bodied units can legally complete every join on the
    // help-first fast path on a small host, so the bench histogram alone
    // cannot assert the direct path was exercised.
    auto& hist = lwt::core::MetricsRegistry::instance().histogram(
        "join.signal_resume_ns");
    lwt::core::Metrics::instance().enable();
    hist.reset();
    {
        lwt::core::DequePool pool;
        auto stream = std::make_unique<lwt::core::XStream>(
            0, std::make_unique<lwt::core::Scheduler>(
                   std::vector<lwt::core::Pool*>{&pool}));
        stream->start();
        auto* unit = new lwt::core::Tasklet([] {
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        });
        pool.push(unit);
        lwt::core::join_unit(unit);
        EXPECT_TRUE(unit->join_done());
        delete unit;
        stream->stop_and_join();
    }
    const std::uint64_t samples = hist.snapshot().count;
    lwt::core::Metrics::instance().disable();
    hist.reset();
    EXPECT_GT(samples, 0u);
}

TEST(JoinCore, EventCounterLastSignalRaceStress) {
    // OS threads only (TSan-safe): hammer the zero-crossing window where
    // the waiter registers while the final signal() drains the list. Any
    // lost wakeup hangs the test (ctest timeout).
    for (int round = 0; round < 300; ++round) {
        lwt::core::EventCounter done;
        done.add(1);
        std::thread sig([&] { done.signal(); });
        done.wait();
        EXPECT_LE(done.value(), 0);
        sig.join();
    }
}

TEST(JoinCore, EventCounterDestroyRaceWithFinalSignal) {
    // Regression (REVIEW: EventCounter::signal UAF): the waiter owns the
    // counter and destroys it the instant wait() returns, while the
    // zero-crossing signal() may still be in flight on another thread.
    // signal() must not touch counter memory after the decrement that
    // lets a fast-path waiter pass, nor after the wake that releases a
    // registered waiter — ASan/TSan flag the old drain-under-guard here.
    for (int round = 0; round < 300; ++round) {
        auto owned = std::make_unique<lwt::core::EventCounter>(1);
        lwt::core::EventCounter* done = owned.get();
        std::thread sig([done] { done->signal(); });
        done->wait();
        owned.reset();  // free immediately; signal() may still be running
        sig.join();
    }
}

TEST(JoinCore, EventCounterManyWaitersAllWake) {
    lwt::core::EventCounter done;
    done.add(2);
    std::atomic<int> woken{0};
    std::vector<std::thread> waiters;
    for (int i = 0; i < 4; ++i) {
        waiters.emplace_back([&] {
            done.wait();
            woken.fetch_add(1);
        });
    }
    done.signal();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    EXPECT_EQ(woken.load(), 0);  // count still 1: nobody may pass
    done.signal();               // zero crossing wakes the whole list
    for (auto& t : waiters) {
        t.join();
    }
    EXPECT_EQ(woken.load(), 4);
}

TEST(JoinCore, EventCounterReusesAcrossRounds) {
    // WaitGroup shape: the same counter is re-armed after each wait.
    lwt::core::EventCounter done;
    for (int round = 0; round < 50; ++round) {
        done.add(1);
        std::thread sig([&] { done.signal(); });
        done.wait();
        sig.join();
    }
    EXPECT_EQ(done.value(), 0);
}

TEST(JoinCore, AttachedWaitSpinsBoundedThenParksWithoutYielding) {
    // The primary's join_all_free over a tasklet far longer than the
    // pre-park spin: the wait gives up spinning and parks on the lot (at
    // least one park), and never yields the OS thread on the way.
    lwt::abt::Config c;
    c.num_xstreams = 2;
    lwt::abt::Library lib(c);
    lib.runtime().reset_stats();
    std::vector<lwt::abt::UnitHandle> handles;
    handles.push_back(lib.task_create(
        [] { std::this_thread::sleep_for(std::chrono::milliseconds(2)); },
        /*pool_idx=*/1));
    lib.join_all_free(handles);
    const lwt::core::SchedStats s = lib.runtime().primary().sched_stats();
    EXPECT_GE(s.parks, 1u);
    EXPECT_EQ(s.idle_yields, 0u);
}

#if !defined(LWT_TSAN)

TEST(JoinCore, UltJoinerStealsViaYieldTo) {
    // Parent ULT joins a still-queued sibling: the join must hand the
    // stream straight to the joinee (yield_to shape), running it ahead of
    // units queued before it.
    lwt::core::DequePool pool;  // FIFO: b would run before c normally
    lwt::core::XStream stream(0, std::make_unique<lwt::core::Scheduler>(
                                     std::vector<lwt::core::Pool*>{&pool}));
    stream.attach_caller();
    std::vector<int> order;
    auto* b = new lwt::core::Ult([&] { order.push_back(1); });
    auto* c = new lwt::core::Ult([&] { order.push_back(2); });
    auto* parent = new lwt::core::Ult([&] {
        lwt::core::join_unit(c);  // queued LAST, must still run FIRST
        order.push_back(3);
    });
    parent->detached = true;
    pool.push(parent);  // parent dequeues first, with b and c still queued
    pool.push(b);
    pool.push(c);
    stream.run_until([&] { return order.size() == 3; });
    EXPECT_EQ(order, (std::vector<int>{2, 1, 3}));
    EXPECT_TRUE(b->join_done() || !b->terminated());
    lwt::core::join_unit(b);
    delete b;
    delete c;
    stream.detach_caller();
}

TEST(JoinCore, YieldToTargetsRunWhenTheDispatchReturnsEarly) {
    // A ULT that yields to a target leaves it in the stream's hint, in no
    // pool. Here the attached thread's wait ends right after such a yield
    // (the yielding ULT is the one that wakes it), and then a native
    // join-steal runs another ULT inline that yields to a third unit. If
    // the first hint outlived its dispatch, the second would overwrite it
    // and `y` would never run.
    lwt::core::DequePool pool;  // FIFO
    lwt::core::XStream stream(0, std::make_unique<lwt::core::Scheduler>(
                                     std::vector<lwt::core::Pool*>{&pool}));
    stream.attach_caller();
    lwt::core::EventCounter woken(1);
    std::atomic<int> ran{0};
    auto* y = new lwt::core::Ult([&] { ran.fetch_or(1); });
    auto* z = new lwt::core::Ult([&] { ran.fetch_or(2); });
    auto* x = new lwt::core::Ult([&] {
        woken.signal();
        EXPECT_TRUE(lwt::core::yield_to(y));
    });
    auto* w = new lwt::core::Ult([&] { EXPECT_TRUE(lwt::core::yield_to(z)); });
    pool.push(x);
    pool.push(y);
    pool.push(w);
    pool.push(z);
    woken.wait();             // runs x, which wakes us and yields to y
    lwt::core::join_unit(w);  // steals w inline; w yields to z
    while (stream.progress()) {
    }
    ASSERT_EQ(ran.load(), 3) << "a yield_to target was stranded";
    for (lwt::core::Ult* u : {x, y, w, z}) {
        lwt::core::join_unit(u);
        delete u;
    }
    stream.detach_caller();
}

TEST(JoinCore, UltJoinerSuspendsUntilTermination) {
    // The joinee runs on ANOTHER stream: the joining ULT must suspend
    // (kBlocked) and be requeued by the terminator's wake, not poll.
    lwt::core::DequePool mine;
    lwt::core::DequePool theirs;
    lwt::core::XStream me(0, std::make_unique<lwt::core::Scheduler>(
                                 std::vector<lwt::core::Pool*>{&mine}));
    auto other = std::make_unique<lwt::core::XStream>(
        1, std::make_unique<lwt::core::Scheduler>(
               std::vector<lwt::core::Pool*>{&theirs}));
    other->start();
    me.attach_caller();
    std::atomic<bool> child_ran{false};
    auto* child = new lwt::core::Ult([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        child_ran.store(true);
    });
    std::atomic<bool> joined{false};
    auto* parent = new lwt::core::Ult([&] {
        lwt::core::join_unit(child);
        EXPECT_TRUE(child_ran.load());
        joined.store(true);
    });
    parent->detached = true;
    theirs.push(child);
    mine.push(parent);
    me.run_until([&] { return joined.load(); });
    delete child;
    me.detach_caller();
    other->stop_and_join();
}

// --- second joiner: the slot is taken, both joiners still return -------------

/// Which joiner takes the slot first; the other one finds it taken and
/// degrades to the second-joiner wait.
enum class FirstJoiner { kUlt, kThread };

std::uintptr_t joiner_tag(const lwt::core::WorkUnit* unit) {
    return unit->joiner.load(std::memory_order_acquire) &
           lwt::core::kJoinerTagMask;
}

/// Both joiners of one unit, driven from whatever context owns the test:
/// `spawn_ult_joiner` starts a ULT that joins `unit`, `idle` lets the
/// caller's context make progress while it waits. The unit blocks on
/// `release` until both joiners are in place, so neither can steal it or
/// see it finish early. Each joiner checks join_done() as it returns; the
/// caller frees the unit only after both have.
template <typename SpawnUltJoiner, typename Idle>
void run_two_joiners(FirstJoiner first, lwt::core::WorkUnit* unit,
                     lwt::core::Event& release, SpawnUltJoiner&& spawn_ult_joiner,
                     Idle&& idle, std::atomic<bool>& ult_done) {
    std::atomic<bool> thread_started{false};
    std::atomic<bool> thread_done{false};
    std::atomic<bool> thread_saw_done{false};
    auto wait_for = [&](auto&& pred) {
        while (!pred()) {
            idle();
        }
    };
    std::thread os_joiner;
    auto start_thread_joiner = [&] {
        os_joiner = std::thread([&] {
            thread_started.store(true);
            lwt::core::join_unit(unit);
            thread_saw_done.store(unit->join_done());
            thread_done.store(true);
        });
    };
    if (first == FirstJoiner::kUlt) {
        spawn_ult_joiner();
        wait_for([&] { return joiner_tag(unit) == lwt::core::kJoinerUltTag; });
        start_thread_joiner();
        wait_for([&] { return thread_started.load(); });
    } else {
        start_thread_joiner();
        wait_for([&] {
            return joiner_tag(unit) == lwt::core::kJoinerThreadTag;
        });
        spawn_ult_joiner();
    }
    // Give the second joiner time to find the slot taken: it needs only
    // its bounded backoff (microseconds) to get there.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(unit->terminated());
    release.set();
    wait_for([&] { return thread_done.load() && ult_done.load(); });
    os_joiner.join();
    EXPECT_TRUE(thread_saw_done.load());
}

void abt_two_joiners(FirstJoiner first) {
    lwt::abt::Config c;
    c.num_xstreams = 3;
    lwt::abt::Library lib(c);
    lwt::core::Event release;
    lwt::abt::UnitHandle child =
        lib.thread_create([&] { release.wait(); }, /*pool_idx=*/1);
    lwt::core::WorkUnit* unit = child.ult();
    std::atomic<bool> ult_done{false};
    std::atomic<bool> ult_saw_done{false};
    lwt::abt::UnitHandle joiner;
    run_two_joiners(
        first, unit, release,
        [&] {
            joiner = lib.thread_create(
                [&] {
                    lwt::core::join_unit(unit);
                    ult_saw_done.store(unit->join_done());
                    ult_done.store(true);
                },
                /*pool_idx=*/2);
        },
        [] { std::this_thread::yield(); }, ult_done);
    EXPECT_TRUE(ult_saw_done.load());
    joiner.free();
    child.free();  // both joiners returned: only now may the unit go
}

void mth_two_joiners(FirstJoiner first) {
    lwt::mth::Config c;
    c.num_workers = 3;
    c.policy = lwt::mth::Policy::kWorkFirst;
    lwt::mth::Library lib(c);
    lib.run([&] {
        lwt::core::Event release;
        std::atomic<lwt::core::WorkUnit*> self{nullptr};
        // Work-first: the child runs at once and blocks on `release`,
        // which resumes this main ULT.
        lwt::mth::ThreadHandle child = lib.create([&] {
            self.store(lwt::core::Ult::current());
            release.wait();
        });
        while (self.load() == nullptr) {
            lwt::mth::Library::yield();
        }
        lwt::core::WorkUnit* unit = self.load();
        std::atomic<bool> ult_done{false};
        std::atomic<bool> ult_saw_done{false};
        lwt::mth::ThreadHandle joiner;
        run_two_joiners(
            first, unit, release,
            [&] {
                joiner = lib.create([&] {
                    lwt::core::join_unit(unit);
                    ult_saw_done.store(unit->join_done());
                    ult_done.store(true);
                });
            },
            [] { lwt::mth::Library::yield(); }, ult_done);
        EXPECT_TRUE(ult_saw_done.load());
        joiner.join();
        child.join();  // both joiners returned: only now may the unit go
    });
}

TEST(SecondJoiner, AbtUltFirstThenOsThread) { abt_two_joiners(FirstJoiner::kUlt); }
TEST(SecondJoiner, AbtOsThreadFirstThenUlt) {
    abt_two_joiners(FirstJoiner::kThread);
}
TEST(SecondJoiner, MthWorkFirstUltFirstThenOsThread) {
    mth_two_joiners(FirstJoiner::kUlt);
}
TEST(SecondJoiner, MthWorkFirstOsThreadFirstThenUlt) {
    mth_two_joiners(FirstJoiner::kThread);
}

// --- every personality's join workload gives its known answer ----------------

int abt_workload() {
    lwt::abt::Config c;
    c.num_xstreams = 2;
    lwt::abt::Library lib(c);
    std::atomic<int> sum{0};
    std::vector<lwt::abt::UnitHandle> handles;
    for (int i = 0; i < 32; ++i) {
        handles.push_back(lib.thread_create([&, i] { sum.fetch_add(i); }));
    }
    lib.join_all_free(handles);
    lwt::abt::UnitHandle tl = lib.task_create([&] { sum.fetch_add(1000); });
    tl.free();
    return sum.load();
}

int qth_workload() {
    lwt::qth::Config c;
    c.num_shepherds = 2;
    c.workers_per_shepherd = 1;
    lwt::qth::Library lib(c);
    std::atomic<int> sum{0};
    lwt::qth::Sinc sinc;
    lib.fork_bulk(48, [&](std::size_t i) { sum.fetch_add(static_cast<int>(i)); },
                  sinc);
    sinc.wait();
    return sum.load();
}

int mth_workload() {
    lwt::mth::Config c;
    c.num_workers = 2;
    lwt::mth::Library lib(c);
    std::atomic<int> sum{0};
    lib.run([&] {
        std::vector<lwt::mth::ThreadHandle> hs;
        for (int i = 0; i < 32; ++i) {
            hs.push_back(lib.create([&, i] { sum.fetch_add(i); }));
        }
        for (auto& h : hs) {
            h.join();
        }
    });
    return sum.load();
}

long mth_fib(lwt::mth::Library& lib, int n) {
    if (n < 2) {
        return n;
    }
    long left = 0;
    lwt::mth::ThreadHandle child =
        lib.create([&lib, &left, n] { left = mth_fib(lib, n - 1); });
    const long right = mth_fib(lib, n - 2);
    child.join();
    return left + right;
}

int cvt_workload() {
    lwt::cvt::Config c;
    c.num_pes = 2;
    lwt::cvt::Library lib(c);
    std::atomic<int> sum{0};
    std::vector<lwt::cvt::CthHandle> hs;
    for (int i = 0; i < 16; ++i) {
        hs.push_back(lib.cth_create([&, i] { sum.fetch_add(i); }));
    }
    for (auto& h : hs) {
        h.join();
    }
    return sum.load();
}

int gol_workload() {
    lwt::gol::Config c;
    c.num_threads = 2;
    lwt::gol::Library lib(c);
    std::atomic<int> sum{0};
    lwt::gol::WaitGroup wg;
    wg.add(64);
    for (int i = 0; i < 64; ++i) {
        lib.go([&, i] {
            sum.fetch_add(i);
            wg.done();
        });
    }
    wg.wait();
    return sum.load();
}

// Sums of 0..n-1 over each workload's units (abt adds one 1000 tasklet).
TEST(JoinPersonalities, AbtJoinsEveryUnit) { EXPECT_EQ(abt_workload(), 496 + 1000); }
TEST(JoinPersonalities, QthJoinsEveryUnit) { EXPECT_EQ(qth_workload(), 1128); }
TEST(JoinPersonalities, MthJoinsEveryUnit) { EXPECT_EQ(mth_workload(), 496); }
TEST(JoinPersonalities, CvtJoinsEveryUnit) { EXPECT_EQ(cvt_workload(), 120); }
TEST(JoinPersonalities, GolJoinsEveryUnit) { EXPECT_EQ(gol_workload(), 2016); }

TEST(JoinPersonalities, MthRecursiveWorkFirstJoinCompletes) {
    // The fib divide-and-conquer shape: every ULT joins a child ULT under
    // mth's LIFO deques, where a joiner that plain-yielded would be
    // re-popped ahead of its child forever.
    lwt::mth::Config c;
    c.num_workers = 2;
    c.policy = lwt::mth::Policy::kWorkFirst;
    lwt::mth::Library lib(c);
    long result = 0;
    lib.run([&] { result = mth_fib(lib, 10); });
    EXPECT_EQ(result, 55);
}

TEST(JoinPersonalities, HandoffJoinAvoidsIdleYields) {
    // The join phase of fig3 in miniature: the primary creates units onto
    // a worker's pool and join-waits for each. The joiner registers and
    // parks for its direct wake, so its wait never touches the idle
    // ladder at all (a polling joiner walks past the spin limit into
    // yields on every 2 ms unit).
    lwt::abt::Config c;
    c.num_xstreams = 2;
    lwt::abt::Library lib(c);
    lib.runtime().reset_stats();
    for (int round = 0; round < 8; ++round) {
        lwt::abt::UnitHandle h = lib.thread_create(
            [] { std::this_thread::sleep_for(std::chrono::milliseconds(2)); },
            /*pool_idx=*/1);
        h.free();
    }
    // Primary stream only: the joiner's own idle behaviour, without the
    // worker's unrelated between-rounds idling.
    EXPECT_EQ(lib.runtime().primary().sched_stats().idle_yields, 0u);
}

#endif  // !LWT_TSAN

}  // namespace
