// Tests for the idle/steal path: the home-pool reroll fix, victim-list
// filtering, multi-probe sweeps, steal telemetry, parking, and a
// contention stress test (K thief streams draining one producer pool with
// no lost or duplicated units). Tasklet-only on purpose: this file is the
// one tools/tsan.sh runs under ThreadSanitizer, and TSan cannot follow the
// kernel's user-level context switches.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "core/pool.hpp"
#include "core/runtime.hpp"
#include "core/sched_stats.hpp"
#include "core/scheduler.hpp"
#include "core/work_unit.hpp"
#include "core/xstream.hpp"
#include "sync/idle_backoff.hpp"
#include "sync/parking_lot.hpp"

namespace {

using namespace lwt::core;

std::unique_ptr<Tasklet> make_noop_tasklet() {
    return std::make_unique<Tasklet>([] {});
}

// --- the headline bugfix ----------------------------------------------------

// Pre-fix, a probe that landed on the home pool returned nullptr and ended
// the sweep; with one victim besides home that failed ~half of all calls.
// Post-fix (home filtered at construction + linear fallback) every next()
// call must find the victim's unit, first try, for any RNG seed.
TEST(StealingScheduler, HomePoolProbeNeverEndsTheSweep) {
    for (unsigned seed = 1; seed <= 64; ++seed) {
        DequePool home;
        DequePool victim;
        auto unit = make_noop_tasklet();
        victim.push(unit.get());
        StealingScheduler sched(&home, {&home, &victim}, seed);
        EXPECT_EQ(sched.next(), unit.get()) << "seed " << seed;
    }
}

TEST(StealingScheduler, HomeIsFilteredFromVictimsAtConstruction) {
    DequePool home;
    DequePool v1;
    DequePool v2;
    StealingScheduler sched(&home, {&v1, &home, &v2, nullptr});
    EXPECT_EQ(sched.victims().size(), 2u);
    for (const Pool* v : sched.victims()) {
        EXPECT_NE(v, &home);
    }
}

TEST(StealingScheduler, HasWorkChecksEachPoolOnce) {
    DequePool home;
    DequePool victim;
    StealingScheduler sched(&home, {&home, &victim});
    EXPECT_FALSE(sched.has_work());
    auto a = make_noop_tasklet();
    home.push(a.get());
    EXPECT_TRUE(sched.has_work());
    ASSERT_EQ(sched.next(), a.get());
    EXPECT_FALSE(sched.has_work());
    auto b = make_noop_tasklet();
    victim.push(b.get());
    EXPECT_TRUE(sched.has_work());
}

TEST(StealingScheduler, SweepFindsWorkInAnyVictim) {
    // With the linear fallback, one next() call must find the single unit
    // regardless of which of many victims holds it.
    constexpr std::size_t kVictims = 8;
    for (std::size_t holder = 0; holder < kVictims; ++holder) {
        DequePool home;
        std::vector<std::unique_ptr<DequePool>> victims;
        std::vector<Pool*> raw{&home};
        for (std::size_t i = 0; i < kVictims; ++i) {
            victims.push_back(std::make_unique<DequePool>());
            raw.push_back(victims.back().get());
        }
        auto unit = make_noop_tasklet();
        victims[holder]->push(unit.get());
        StealingScheduler sched(&home, raw, /*seed=*/7);
        EXPECT_EQ(sched.next(), unit.get()) << "holder " << holder;
    }
}

TEST(StealingScheduler, NoVictimsDegradesToHomeOnly) {
    DequePool home;
    auto unit = make_noop_tasklet();
    home.push(unit.get());
    StealingScheduler sched(&home, {&home});  // filters to zero victims
    EXPECT_EQ(sched.next(), unit.get());
    EXPECT_EQ(sched.next(), nullptr);
}

// --- telemetry ---------------------------------------------------------------

TEST(StealingScheduler, CountsProbesAndOutcomes) {
    DequePool home;
    DequePool victim;
    SchedCounters counters;
    StealingScheduler sched(&home, {&victim}, /*seed=*/3);
    sched.bind_stats(&counters);

    auto unit = make_noop_tasklet();
    victim.push(unit.get());
    ASSERT_EQ(sched.next(), unit.get());
    SchedStats stats = counters.snapshot();
    EXPECT_EQ(stats.steal_hits, 1u);
    EXPECT_GE(stats.steal_attempts, 1u);

    // An all-empty sweep: probes plus the linear fallback, zero hits.
    ASSERT_EQ(sched.next(), nullptr);
    stats = counters.snapshot();
    EXPECT_EQ(stats.steal_hits, 1u);
    EXPECT_GT(stats.steal_empty, 0u);
    EXPECT_EQ(stats.steal_attempts,
              stats.steal_hits + stats.steal_empty + stats.steal_lost);
    EXPECT_GT(stats.steal_hit_rate(), 0.0);
    EXPECT_LT(stats.steal_hit_rate(), 1.0);
}

// --- tiered victim ordering --------------------------------------------------

TEST(StealingScheduler, TieredStealPrefersSiblingThenPackageThenRemote) {
    DequePool home;
    DequePool sibling;
    DequePool same_pkg;
    DequePool remote;
    SchedCounters counters;
    StealingScheduler sched(&home,
                            VictimTiers{{&sibling}, {&same_pkg}, {&remote}},
                            /*seed=*/11);
    sched.bind_stats(&counters);

    // One unit in every tier: the sweep must take the SMT sibling's.
    auto a = make_noop_tasklet();
    auto b = make_noop_tasklet();
    auto c = make_noop_tasklet();
    sibling.push(a.get());
    same_pkg.push(b.get());
    remote.push(c.get());
    EXPECT_EQ(sched.next(), a.get());
    SchedStats stats = counters.snapshot();
    EXPECT_EQ(stats.tier_hits[0], 1u);
    EXPECT_EQ(stats.tier_hits[1], 0u);
    EXPECT_EQ(stats.tier_hits[2], 0u);

    // Sibling drained: next comes from the package tier, then remote.
    EXPECT_EQ(sched.next(), b.get());
    EXPECT_EQ(sched.next(), c.get());
    stats = counters.snapshot();
    EXPECT_EQ(stats.tier_hits[0], 1u);
    EXPECT_EQ(stats.tier_hits[1], 1u);
    EXPECT_EQ(stats.tier_hits[2], 1u);
    EXPECT_EQ(stats.steal_hits, 3u);
    EXPECT_EQ(stats.tier_attempts[0] + stats.tier_attempts[1] +
                  stats.tier_attempts[2],
              stats.steal_attempts);
}

TEST(StealingScheduler, TieredCtorFiltersHomeAndNullPerTier) {
    DequePool home;
    DequePool v1;
    DequePool v2;
    StealingScheduler sched(
        &home, VictimTiers{{&home, &v1}, {nullptr, &v2}, {&home, nullptr}});
    ASSERT_EQ(sched.victims().size(), 2u);
    EXPECT_EQ(sched.tier_victims(0), (std::vector<Pool*>{&v1}));
    EXPECT_EQ(sched.tier_victims(1), (std::vector<Pool*>{&v2}));
    EXPECT_TRUE(sched.tier_victims(2).empty());
}

TEST(StealingScheduler, FlatCtorAccountsToPackageTier) {
    // The flat (untiered) constructor treats every victim as same-package,
    // so the legacy totals and the tier breakdown stay consistent.
    DequePool home;
    DequePool victim;
    SchedCounters counters;
    StealingScheduler sched(&home, {&victim}, /*seed=*/5);
    sched.bind_stats(&counters);
    auto unit = make_noop_tasklet();
    victim.push(unit.get());
    ASSERT_EQ(sched.next(), unit.get());
    ASSERT_EQ(sched.next(), nullptr);  // an all-empty sweep on top
    const SchedStats stats = counters.snapshot();
    EXPECT_EQ(stats.tier_hits[1], 1u);
    EXPECT_EQ(stats.tier_attempts[0], 0u);
    EXPECT_EQ(stats.tier_attempts[2], 0u);
    EXPECT_EQ(stats.tier_attempts[1], stats.steal_attempts);
}

TEST(SchedStats, SnapshotsAggregate) {
    SchedStats a;
    a.steal_attempts = 4;
    a.steal_hits = 1;
    a.tier_attempts[1] = 4;
    SchedStats b;
    b.steal_attempts = 6;
    b.parks = 2;
    b.tier_attempts[1] = 5;
    b.tier_attempts[2] = 1;
    a += b;
    EXPECT_EQ(a.steal_attempts, 10u);
    EXPECT_EQ(a.steal_hits, 1u);
    EXPECT_EQ(a.parks, 2u);
    EXPECT_EQ(a.tier_attempts[1], 9u);
    EXPECT_EQ(a.tier_attempts[2], 1u);
    EXPECT_DOUBLE_EQ(a.steal_hit_rate(), 0.1);
}

// --- parking lot -------------------------------------------------------------

TEST(ParkingLot, NotifyAfterPrepareAbortsThePark) {
    lwt::sync::ParkingLot lot;
    const std::uint64_t ticket = lot.prepare_park();
    lot.notify_all();  // epoch moves while we are registered
    // Must return immediately (notified), not wait for the full timeout.
    EXPECT_TRUE(lot.park(ticket, std::chrono::microseconds(60'000'000)));
    EXPECT_EQ(lot.waiters(), 0u);
}

TEST(ParkingLot, TimeoutSafetyNetFires) {
    lwt::sync::ParkingLot lot;
    const std::uint64_t ticket = lot.prepare_park();
    EXPECT_FALSE(lot.park(ticket, std::chrono::microseconds(1000)));
}

TEST(ParkingLot, WakesAParkedThread) {
    lwt::sync::ParkingLot lot;
    std::atomic<bool> woken{false};
    std::thread waiter([&] {
        const std::uint64_t ticket = lot.prepare_park();
        lot.park(ticket, std::chrono::microseconds(60'000'000));
        woken.store(true, std::memory_order_release);
    });
    while (lot.waiters() == 0) {
        std::this_thread::yield();
    }
    lot.notify_all();
    waiter.join();
    EXPECT_TRUE(woken.load(std::memory_order_acquire));
    EXPECT_GE(lot.notifies(), 1u);
}

// --- idle ladder -------------------------------------------------------------

TEST(IdleBackoff, EscalatesSpinYieldPark) {
    using lwt::sync::IdleBackoff;
    using Step = IdleBackoff::Step;
    lwt::sync::ParkingLot lot;
    lwt::sync::IdleConfig config;
    config.policy = lwt::sync::IdlePolicy::kPark;
    config.spin_limit = 2;
    config.yield_limit = 1;
    config.park_timeout = std::chrono::microseconds(100);
    IdleBackoff idle(config, &lot);
    auto no_work = [] { return false; };
    EXPECT_EQ(idle.step(no_work), Step::kSpun);
    EXPECT_EQ(idle.step(no_work), Step::kSpun);
    EXPECT_EQ(idle.step(no_work), Step::kYielded);
    EXPECT_EQ(idle.step(no_work), Step::kParkTimeout);
    // A positive re-check aborts the park without blocking.
    EXPECT_EQ(idle.step([] { return true; }), Step::kParkAborted);
    idle.reset();
    EXPECT_EQ(idle.step(no_work), Step::kSpun);
}

TEST(IdleBackoff, ParkWithoutLotDegradesToBackoff) {
    using lwt::sync::IdleBackoff;
    lwt::sync::IdleConfig config;
    config.policy = lwt::sync::IdlePolicy::kPark;
    config.spin_limit = 0;
    config.yield_limit = 1;
    IdleBackoff idle(config, nullptr);
    auto no_work = [] { return false; };
    for (int i = 0; i < 8; ++i) {
        EXPECT_EQ(idle.step(no_work), IdleBackoff::Step::kYielded);
    }
}

TEST(IdleBackoff, PushBetweenStepsRingsTheTopTrain) {
    using lwt::sync::IdleBackoff;
    using Step = IdleBackoff::Step;
    lwt::sync::ParkingLot lot;
    lwt::sync::IdleConfig config;  // kBackoff, the default policy
    config.spin_limit = 1;
    IdleBackoff idle(config, &lot);
    auto no_work = [] { return false; };
    EXPECT_EQ(idle.step(no_work), Step::kSpun);
    // Ten yields double the train up to its top length (1024 pauses).
    for (int i = 0; i < 10; ++i) {
        EXPECT_EQ(idle.step(no_work), Step::kYielded);
    }
    lot.notify_all();  // a push lands while the caller sweeps
    EXPECT_EQ(idle.step(no_work), Step::kRang);
    // The rang step did not climb the ladder: the next one runs the top
    // train in full (the epoch is quiet again) and yields.
    EXPECT_EQ(idle.step(no_work), Step::kYielded);
}

TEST(IdleBackoff, PauseTrainStopsOnEpochBeforeAnyPause) {
    lwt::sync::ParkingLot lot;
    const std::uint64_t seen = lot.epoch();
    unsigned looks = 0;
    auto count_looks = [&] {
        ++looks;
        return false;
    };
    // Quiet epoch: the whole train runs and consults done() on the way.
    EXPECT_FALSE(lwt::sync::pause_train(1024, &lot, seen, count_looks));
    EXPECT_GT(looks, 0u);
    // Moved epoch: the train ends at its first look, before one pause.
    lot.notify_all();
    looks = 0;
    EXPECT_TRUE(lwt::sync::pause_train(1024, &lot, seen, count_looks));
    EXPECT_EQ(looks, 0u);
    // done() ends it too; without a lot only done() can.
    EXPECT_TRUE(lwt::sync::pause_train(1024, nullptr, 0, [] { return true; }));
    EXPECT_FALSE(lwt::sync::pause_train(64, nullptr, 0, [] { return false; }));
}

TEST(IdlePolicy, ParsesFromStrings) {
    using lwt::sync::IdlePolicy;
    using lwt::sync::idle_policy_from_string;
    EXPECT_EQ(idle_policy_from_string("spin", IdlePolicy::kPark),
              IdlePolicy::kSpin);
    EXPECT_EQ(idle_policy_from_string("backoff", IdlePolicy::kSpin),
              IdlePolicy::kBackoff);
    EXPECT_EQ(idle_policy_from_string("park", IdlePolicy::kSpin),
              IdlePolicy::kPark);
    EXPECT_EQ(idle_policy_from_string(nullptr, IdlePolicy::kBackoff),
              IdlePolicy::kBackoff);
    EXPECT_EQ(idle_policy_from_string("bogus", IdlePolicy::kBackoff),
              IdlePolicy::kBackoff);
}

// --- pools wake parked streams ----------------------------------------------

TEST(Pool, PushNotifiesAttachedWaker) {
    lwt::sync::ParkingLot lot;
    DequePool pool;
    pool.set_waker(&lot);
    std::atomic<bool> parked_and_woken{false};
    std::thread waiter([&] {
        const std::uint64_t ticket = lot.prepare_park();
        if (pool.empty()) {
            lot.park(ticket, std::chrono::microseconds(60'000'000));
        } else {
            lot.cancel_park();
        }
        parked_and_woken.store(true, std::memory_order_release);
    });
    while (lot.waiters() == 0) {
        std::this_thread::yield();
    }
    auto unit = make_noop_tasklet();
    pool.push(unit.get());  // publish + notify
    waiter.join();
    EXPECT_TRUE(parked_and_woken.load(std::memory_order_acquire));
    pool.set_waker(nullptr);
}

// --- end-to-end: streams park while idle and wake for work -------------------

TEST(XStreamParking, IdleStreamsParkAndWakeOnPush) {
    constexpr std::size_t kStreams = 3;
    std::vector<std::unique_ptr<DequePool>> pools;
    std::vector<Pool*> raw;
    for (std::size_t i = 0; i < kStreams; ++i) {
        pools.push_back(std::make_unique<DequePool>(DequePool::PopOrder::kLifo));
        raw.push_back(pools.back().get());
    }
    lwt::sync::IdleConfig idle;
    idle.policy = lwt::sync::IdlePolicy::kPark;
    idle.spin_limit = 4;
    idle.yield_limit = 2;
    idle.park_timeout = std::chrono::microseconds(50'000);
    std::atomic<std::size_t> done{0};
    {
        Runtime rt(kStreams, [&](unsigned rank) {
            return std::make_unique<StealingScheduler>(raw[rank], raw,
                                                       0x51edu + rank);
        }, idle);
        // Wait until a secondary stream has demonstrably parked (idle parks
        // time out and re-park, bumping the counter) before pushing work —
        // the point is that parked streams wake and help drain it.
        while (rt.sched_stats().parks == 0) {
            std::this_thread::yield();
        }
        constexpr std::size_t kUnits = 256;
        for (std::size_t i = 0; i < kUnits; ++i) {
            auto* t = new Tasklet([&done] {
                done.fetch_add(1, std::memory_order_relaxed);
            });
            t->detached = true;
            raw[0]->push(t);
        }
        rt.primary().run_until([&] { return done.load() >= kUnits; });
        SchedStats stats = rt.sched_stats();
        EXPECT_GT(stats.parks, 0u);  // somebody actually slept
        EXPECT_EQ(done.load(), kUnits);
    }
}

// --- contention stress: no lost, no duplicated units -------------------------

TEST(StealStress, ManyThievesOneProducerNoLostOrDuplicatedWork) {
    constexpr std::size_t kStreams = 4;
    constexpr std::size_t kUnits = 20'000;
    // DequePool(kLifo): the owner-LIFO / thief-FIFO pool mth runs on.
    std::vector<std::unique_ptr<DequePool>> pools;
    std::vector<Pool*> raw;
    for (std::size_t i = 0; i < kStreams; ++i) {
        pools.push_back(std::make_unique<DequePool>(DequePool::PopOrder::kLifo));
        raw.push_back(pools.back().get());
    }
    lwt::sync::IdleConfig idle;
    idle.policy = lwt::sync::IdlePolicy::kPark;
    idle.spin_limit = 8;
    idle.yield_limit = 4;
    idle.park_timeout = std::chrono::microseconds(500);
    std::vector<std::atomic<std::uint32_t>> executions(kUnits);
    for (auto& e : executions) {
        e.store(0, std::memory_order_relaxed);
    }
    std::atomic<std::size_t> done{0};
    {
        Runtime rt(kStreams, [&](unsigned rank) {
            return std::make_unique<StealingScheduler>(raw[rank], raw,
                                                       0xabcdu * (rank + 1));
        }, idle);
        // All units funnel through the primary's pool: every other stream
        // can only obtain work by stealing from it (or from each other
        // after migration).
        for (std::size_t i = 0; i < kUnits; ++i) {
            auto* t = new Tasklet([&executions, &done, i] {
                executions[i].fetch_add(1, std::memory_order_relaxed);
                done.fetch_add(1, std::memory_order_release);
            });
            t->detached = true;
            raw[0]->push(t);
        }
        rt.primary().run_until([&] { return done.load() >= kUnits; });
        SchedStats stats = rt.sched_stats();
        // The thieves had no pool of their own to drain: the only way this
        // completes is successful steals.
        EXPECT_GT(stats.steal_attempts, 0u);
    }
    for (std::size_t i = 0; i < kUnits; ++i) {
        EXPECT_EQ(executions[i].load(std::memory_order_relaxed), 1u)
            << "unit " << i << " lost or duplicated";
    }
}

// --- stealing scheduler under a runtime reports hits -------------------------

TEST(SchedStatsRuntime, HitRateReportedUnderStealing) {
    constexpr std::size_t kStreams = 2;
    std::vector<std::unique_ptr<DequePool>> pools;
    std::vector<Pool*> raw;
    for (std::size_t i = 0; i < kStreams; ++i) {
        pools.push_back(std::make_unique<DequePool>(DequePool::PopOrder::kLifo));
        raw.push_back(pools.back().get());
    }
    std::atomic<std::size_t> done{0};
    {
        Runtime rt(kStreams, [&](unsigned rank) {
            return std::make_unique<StealingScheduler>(raw[rank], raw,
                                                       97u + rank);
        });
        rt.reset_sched_stats();
        constexpr std::size_t kUnits = 4000;
        for (std::size_t i = 0; i < kUnits; ++i) {
            auto* t = new Tasklet([&done] {
                done.fetch_add(1, std::memory_order_relaxed);
            });
            t->detached = true;
            raw[0]->push(t);
        }
        rt.primary().run_until([&] { return done.load() >= kUnits; });
        const SchedStats stats = rt.sched_stats();
        EXPECT_EQ(stats.steal_attempts,
                  stats.steal_hits + stats.steal_empty + stats.steal_lost);
    }
}

}  // namespace
