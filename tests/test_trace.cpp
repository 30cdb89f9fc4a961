// Tests for the lifecycle tracer.
//
// NOTE: the tracer is process-global; these tests enable/clear it around
// each scenario and therefore must not run concurrently with other suites
// in the same process (they don't: one binary per suite).
#include <gtest/gtest.h>

#include <atomic>
#include <memory>

#include "core/pool.hpp"
#include "core/scheduler.hpp"
#include "core/sync_ult.hpp"
#include "core/trace.hpp"
#include "core/ult.hpp"
#include "core/xstream.hpp"

namespace {

using namespace lwt::core;

class TraceTest : public ::testing::Test {
  protected:
    void SetUp() override {
        Tracer::instance().clear();
        Tracer::instance().enable();
    }
    void TearDown() override {
        Tracer::instance().disable();
        Tracer::instance().clear();
    }
};

TEST_F(TraceTest, DisabledTracerRecordsNothing) {
    Tracer::instance().disable();
    Tasklet t([] {});
    EXPECT_EQ(Tracer::instance().stats().of(TraceEvent::kCreate), 0u);
}

TEST_F(TraceTest, CreateStartFinishForTasklet) {
    DequePool pool;
    XStream stream(0, std::make_unique<Scheduler>(std::vector<Pool*>{&pool}));
    stream.attach_caller();
    auto* t = new Tasklet([] {});
    t->detached = true;
    pool.push(t);
    while (stream.progress()) {
    }
    stream.detach_caller();
    const TraceStats s = Tracer::instance().stats();
    EXPECT_EQ(s.of(TraceEvent::kCreate), 1u);
    EXPECT_EQ(s.of(TraceEvent::kStart), 1u);
    EXPECT_EQ(s.of(TraceEvent::kFinish), 1u);
    EXPECT_EQ(s.of(TraceEvent::kYield), 0u);
}

TEST_F(TraceTest, YieldsAreCounted) {
    DequePool pool;
    XStream stream(0, std::make_unique<Scheduler>(std::vector<Pool*>{&pool}));
    stream.attach_caller();
    auto* u = new Ult([] {
        for (int i = 0; i < 5; ++i) {
            Ult::current()->yield();
        }
    });
    u->detached = true;
    pool.push(u);
    while (stream.progress()) {
    }
    stream.detach_caller();
    const TraceStats s = Tracer::instance().stats();
    EXPECT_EQ(s.of(TraceEvent::kYield), 5u);
    EXPECT_EQ(s.of(TraceEvent::kStart), 6u);  // initial + 5 resumes
    EXPECT_EQ(s.of(TraceEvent::kFinish), 1u);
}

TEST_F(TraceTest, BlockAndWakeArePaired) {
    DequePool pool;
    XStream stream(0, std::make_unique<Scheduler>(std::vector<Pool*>{&pool}));
    stream.attach_caller();
    Mutex mutex;
    auto* holder = new Ult([&] {
        mutex.lock();
        Ult::current()->yield();
        mutex.unlock();
    });
    holder->detached = true;
    auto* waiter = new Ult([&] {
        mutex.lock();
        mutex.unlock();
    });
    waiter->detached = true;
    pool.push(holder);
    pool.push(waiter);
    while (stream.progress()) {
    }
    stream.detach_caller();
    const TraceStats s = Tracer::instance().stats();
    EXPECT_GE(s.of(TraceEvent::kBlock), 1u);
    EXPECT_GE(s.of(TraceEvent::kWake), 1u);
    EXPECT_EQ(s.of(TraceEvent::kFinish), 2u);
}

TEST_F(TraceTest, SnapshotIsTimeSortedAndComplete) {
    DequePool pool;
    XStream stream(0, std::make_unique<Scheduler>(std::vector<Pool*>{&pool}));
    stream.attach_caller();
    for (int i = 0; i < 10; ++i) {
        auto* t = new Tasklet([] {});
        t->detached = true;
        pool.push(t);
    }
    while (stream.progress()) {
    }
    stream.detach_caller();
    const auto events = Tracer::instance().snapshot();
    EXPECT_EQ(events.size(), 30u);  // 10 x (create + start + finish)
    for (std::size_t i = 1; i < events.size(); ++i) {
        EXPECT_LE(events[i - 1].tsc, events[i].tsc);
    }
}

TEST_F(TraceTest, SnapshotIsStableWithinAThread) {
    // Records from one thread live in one ring in program order; the
    // stable sort must keep that order even when timestamps collide
    // (coarse counters; rdtsc()==0 on non-x86 builds). The per-unit
    // lifecycle (create before start before finish) pins it down.
    DequePool pool;
    XStream stream(0, std::make_unique<Scheduler>(std::vector<Pool*>{&pool}));
    stream.attach_caller();
    auto* t = new Tasklet([] {});
    const void* id = t;
    t->detached = true;
    pool.push(t);
    while (stream.progress()) {
    }
    stream.detach_caller();
    std::vector<TraceEvent> order;
    for (const TraceRecord& r : Tracer::instance().snapshot()) {
        if (r.unit == id) {
            order.push_back(r.event);
        }
    }
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], TraceEvent::kCreate);
    EXPECT_EQ(order[1], TraceEvent::kStart);
    EXPECT_EQ(order[2], TraceEvent::kFinish);
}

TEST_F(TraceTest, ClearResetsCounts) {
    Tasklet t([] {});
    EXPECT_GE(Tracer::instance().stats().of(TraceEvent::kCreate), 1u);
    Tracer::instance().clear();
    EXPECT_EQ(Tracer::instance().stats().of(TraceEvent::kCreate), 0u);
}

TEST_F(TraceTest, EventNamesAreStable) {
    EXPECT_EQ(trace_event_name(TraceEvent::kCreate), "create");
    EXPECT_EQ(trace_event_name(TraceEvent::kWake), "wake");
    EXPECT_EQ(trace_event_name(TraceEvent::kFinish), "finish");
}

TEST_F(TraceTest, CrossStreamEventsAggregate) {
    DequePool pool;
    XStream stream(1, std::make_unique<Scheduler>(std::vector<Pool*>{&pool}));
    stream.start();
    std::atomic<int> ran{0};
    constexpr int kUnits = 20;
    for (int i = 0; i < kUnits; ++i) {
        auto* t = new Tasklet([&] { ran.fetch_add(1); });
        t->detached = true;
        pool.push(t);
    }
    while (ran.load() < kUnits) {
        std::this_thread::yield();
    }
    stream.stop_and_join();
    const TraceStats s = Tracer::instance().stats();
    // Creates recorded on this thread; starts/finishes on the stream's.
    EXPECT_EQ(s.of(TraceEvent::kCreate), static_cast<std::uint64_t>(kUnits));
    EXPECT_EQ(s.of(TraceEvent::kStart), static_cast<std::uint64_t>(kUnits));
    EXPECT_EQ(s.of(TraceEvent::kFinish), static_cast<std::uint64_t>(kUnits));
}

}  // namespace
