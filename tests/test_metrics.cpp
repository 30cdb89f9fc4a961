// Tests for the metrics registry, latency histograms, Chrome-trace
// exporter, ring-overwrite accounting, and the env-driven observability
// session.
//
// NOTE: the recorders (Tracer, Metrics, MetricsRegistry) and the
// observability arming state are process-global. The ObservabilitySession
// env test runs first in this binary (gtest runs tests in declaration
// order; no shuffle in CI) so no other test's recorders are live when its
// outermost session arms and flushes.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "arch/cpu.hpp"
#include "core/metrics.hpp"
#include "core/observability.hpp"
#include "core/pool.hpp"
#include "core/runtime.hpp"
#include "core/scheduler.hpp"
#include "core/sync_ult.hpp"
#include "core/trace.hpp"
#include "core/trace_export.hpp"
#include "core/ult.hpp"
#include "core/xstream.hpp"

// TSan cannot follow fcontext stack switches, so the one ULT-based test
// below skips itself under TSan; everything else here is OS-thread /
// tasklet-only and is exactly what tools/tsan.sh wants to race.
#if defined(__SANITIZE_THREAD__)
#define LWT_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define LWT_TSAN_BUILD 1
#endif
#endif

namespace {

using namespace lwt::core;

// --- observability session (must be the first test; see file comment) -------

TEST(ObservabilitySessionTest, EnvArmsRecordersAndFlushWritesTrace) {
    const char* path = "obs_session_trace_test.json";
    const char* metrics_path = "obs_session_metrics_test.json";
    std::remove(path);
    std::remove(metrics_path);
    ::setenv("LWT_TRACE", path, 1);
    ::setenv("LWT_METRICS", metrics_path, 1);
    {
        ObservabilitySession outer;
        EXPECT_TRUE(observability_armed());
        EXPECT_TRUE(Tracer::instance().enabled());
        EXPECT_TRUE(Metrics::instance().enabled());
        {
            // Nested session (a personality inside glt): no double flush.
            ObservabilitySession inner;
            Tasklet t([] {});  // records a kCreate event
        }
        // Refcount still held: no flush yet.
        EXPECT_GE(Tracer::instance().stats().of(TraceEvent::kCreate), 1u);
    }
    // Outermost detach flushed: trace file exists and the tracer was
    // cleared for the next boot/teardown cycle.
    std::FILE* f = std::fopen(path, "r");
    ASSERT_NE(f, nullptr);
    std::fclose(f);
    EXPECT_EQ(Tracer::instance().stats().of(TraceEvent::kCreate), 0u);
    std::FILE* mj = std::fopen(metrics_path, "r");
    ASSERT_NE(mj, nullptr);
    std::fclose(mj);
    std::remove(path);
    std::remove(metrics_path);
    ::unsetenv("LWT_TRACE");
    ::unsetenv("LWT_METRICS");
    // The flush disarmed what the session armed: the remaining tests start
    // from a clean slate, and the next outermost attach re-arms from the
    // settings then in force.
    EXPECT_FALSE(observability_armed());
    EXPECT_FALSE(Tracer::instance().enabled());
    EXPECT_FALSE(Metrics::instance().enabled());
}

// --- log-linear histogram ----------------------------------------------------

TEST(HistogramTest, BucketEdges) {
    using H = HistogramSnapshot;
    constexpr std::uint64_t kMax = ~std::uint64_t{0};
    // Exact below 32; 32 linear sub-buckets per power of two above.
    EXPECT_EQ(H::bucket_of(0), 0u);
    EXPECT_EQ(H::bucket_of(31), 31u);
    EXPECT_EQ(H::bucket_of(32), 32u);
    EXPECT_EQ(H::bucket_of(std::uint64_t{1} << 63), 1888u);
    EXPECT_EQ(H::bucket_of(kMax), H::kBuckets - 1);
    // Every edge lies inside the bucket it maps to.
    for (const std::uint64_t v :
         {std::uint64_t{0}, std::uint64_t{31}, std::uint64_t{32},
          std::uint64_t{1} << 63, kMax}) {
        const std::size_t b = H::bucket_of(v);
        EXPECT_LE(H::bucket_lower(b), v) << v;
        EXPECT_LE(v - H::bucket_lower(b), H::bucket_width(b) - 1) << v;
    }
    EXPECT_EQ(H::bucket_lower(32), 32u);
    EXPECT_EQ(H::bucket_width(32), 1u);
    EXPECT_EQ(H::bucket_lower(1888), std::uint64_t{1} << 63);
    EXPECT_EQ(H::bucket_lower(H::kBuckets - 1) +
                  (H::bucket_width(H::kBuckets - 1) - 1),
              kMax);
    // A bucket never spans more than 1/32 of its lower edge.
    for (std::size_t b = H::kSub; b < H::kBuckets; ++b) {
        EXPECT_LE(H::bucket_width(b) * H::kSub, H::bucket_lower(b)) << b;
    }

    Histogram& live = MetricsRegistry::instance().histogram("test.hist.edges");
    for (const std::uint64_t v : {0, 1, 31, 32, 33}) {
        live.record(v);
    }
    const H h = live.snapshot();
    EXPECT_EQ(h.buckets[0], 1u);
    EXPECT_EQ(h.buckets[31], 1u);
    EXPECT_EQ(h.buckets[32], 1u);
    EXPECT_EQ(h.count, 5u);
    EXPECT_EQ(h.sum, 97u);
    EXPECT_DOUBLE_EQ(h.mean(), 19.4);
}

TEST(HistogramTest, QuantilesWithinOneSixtyFourth) {
    // A known distribution spanning five decades: v = floor(1.0001^i).
    auto& reg = MetricsRegistry::instance();
    Histogram& live = reg.histogram("test.hist.quantiles");
    std::vector<std::uint64_t> values;
    double x = 1.0;
    for (int i = 0; i < 120000; ++i, x *= 1.0001) {
        values.push_back(static_cast<std::uint64_t>(x));
        live.record(values.back());
    }
    const HistogramSnapshot h = live.snapshot();
    std::sort(values.begin(), values.end());
    for (const double q : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999}) {
        const auto rank = static_cast<std::size_t>(
            std::ceil(q * static_cast<double>(values.size())));
        const double exact = static_cast<double>(values[rank - 1]);
        EXPECT_NEAR(h.quantile(q), exact, exact / 64.0) << "q=" << q;
    }
    // Point masses: the interpolation can only be off by the width of the
    // bucket holding the mass (1/32), and p50 and p99 land in their own
    // modes rather than on one shared edge.
    Histogram& modes = reg.histogram("test.hist.bimodal");
    for (int i = 0; i < 90; ++i) {
        modes.record(100);
    }
    for (int i = 0; i < 10; ++i) {
        modes.record(10000);
    }
    const HistogramSnapshot bimodal = modes.snapshot();
    EXPECT_NEAR(bimodal.quantile(0.5), 100.0, 100.0 / 32.0);
    EXPECT_NEAR(bimodal.quantile(0.99), 10000.0, 10000.0 / 32.0);
    // Empty histogram: every quantile is 0.
    EXPECT_EQ(HistogramSnapshot{}.quantile(0.5), 0.0);
}

TEST(HistogramTest, SnapshotMergesEveryThreadsBlock) {
    Histogram& h = MetricsRegistry::instance().histogram("test.hist.merge");
    h.record(1);
    h.record(5);
    std::thread([&h] {
        h.record(5);
        h.record(300);
    }).join();
    const HistogramSnapshot merged = h.snapshot();
    EXPECT_EQ(merged.count, 4u);
    EXPECT_EQ(merged.sum, 311u);
    EXPECT_EQ(merged.buckets[HistogramSnapshot::bucket_of(5)], 2u);
    EXPECT_EQ(merged.buckets[HistogramSnapshot::bucket_of(300)], 1u);
}

TEST(HistogramTest, ResetZeroesEverything) {
    Histogram& h = MetricsRegistry::instance().histogram("test.hist.reset");
    h.record(42);
    EXPECT_EQ(h.snapshot().count, 1u);
    h.reset();
    HistogramSnapshot s = h.snapshot();
    EXPECT_EQ(s.count, 0u);
    EXPECT_EQ(s.sum, 0u);
    // The next record starts the recording thread's block from zero.
    h.record(7);
    s = h.snapshot();
    EXPECT_EQ(s.count, 1u);
    EXPECT_EQ(s.sum, 7u);
    EXPECT_EQ(s.buckets[HistogramSnapshot::bucket_of(42)], 0u);
    h.reset();
}

TEST(TelemetryTest, TotalsSurviveTheRecordingThreadsExit) {
    auto& reg = MetricsRegistry::instance();
    Counter& c = reg.counter("test.exit.counter");
    Histogram& h = reg.histogram("test.exit.hist");
    c.reset();
    h.reset();
    std::thread([&] {
        c.inc(5);
        h.record(1000);
        h.record(2000);
    }).join();
    EXPECT_EQ(c.value(), 5u);
    EXPECT_EQ(h.snapshot().count, 2u);
    EXPECT_EQ(h.snapshot().sum, 3000u);
    // A later thread may take over the exited thread's shard: it adds to
    // the totals, never replaces them.
    std::thread([&] {
        c.inc(2);
        h.record(500);
    }).join();
    EXPECT_EQ(c.value(), 7u);
    EXPECT_EQ(h.snapshot().count, 3u);
    EXPECT_EQ(h.snapshot().sum, 3500u);
    c.reset();
    h.reset();
}

// --- registry ----------------------------------------------------------------

TEST(MetricsRegistryTest, LookupIsStableAndResetKeepsNames) {
    auto& reg = MetricsRegistry::instance();
    Counter& c1 = reg.counter("test.registry.counter");
    Counter& c2 = reg.counter("test.registry.counter");
    EXPECT_EQ(&c1, &c2);  // same name -> same cell
    c1.inc(3);

    Gauge& g = reg.gauge("test.registry.gauge");
    g.set(7);
    g.set(2);
    EXPECT_EQ(g.value(), 2);
    EXPECT_EQ(g.max(), 7);  // high-water survives lower samples

    reg.histogram("test.registry.hist").record(9);

    const MetricsSnapshot snap = snapshot_metrics();
    EXPECT_EQ(snap.counter("test.registry.counter"), 3u);
    bool saw_hist = false;
    for (const auto& e : snap.histograms) {
        if (e.name == "test.registry.hist") {
            saw_hist = true;
            EXPECT_EQ(e.hist.count, 1u);
        }
    }
    EXPECT_TRUE(saw_hist);

    reg.reset_values();
    EXPECT_EQ(c1.value(), 0u);
    EXPECT_EQ(g.max(), 0);
    EXPECT_EQ(reg.histogram("test.registry.hist").snapshot().count, 0u);
    // Names stay registered after reset.
    EXPECT_EQ(&reg.counter("test.registry.counter"), &c1);
}

// --- Chrome trace exporter ---------------------------------------------------

TEST(TraceExportTest, GoldenFile) {
    // ticks_per_us = 1.0 makes timestamps deterministic: one unit created
    // on an external thread, run to completion on stream 0.
    const void* unit = reinterpret_cast<const void*>(0x10);
    const std::vector<TraceRecord> records = {
        {100, unit, TraceEvent::kCreate, kNoStream},
        {200, unit, TraceEvent::kStart, 0},
        {450, unit, TraceEvent::kFinish, 0},
    };
    std::ostringstream os;
    write_chrome_trace(os, records, ChromeTraceOptions{1.0, true});
    const std::string expected =
        "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
        "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"thread_name\","
        "\"args\":{\"name\":\"stream 0\"}},\n"
        "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"thread_name\","
        "\"args\":{\"name\":\"external\"}},\n"
        "{\"ph\":\"i\",\"pid\":1,\"tid\":1,\"ts\":0.000,\"s\":\"t\","
        "\"name\":\"create\",\"args\":{\"unit\":\"0x10\"}},\n"
        "{\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":100.000,\"dur\":250.000,"
        "\"name\":\"run\",\"args\":{\"unit\":\"0x10\"}}\n"
        "]}\n";
    EXPECT_EQ(os.str(), expected);
}

TEST(TraceExportTest, YieldClosesAndReopensSpans) {
    const void* unit = reinterpret_cast<const void*>(0x20);
    const std::vector<TraceRecord> records = {
        {0, unit, TraceEvent::kStart, 0},
        {10, unit, TraceEvent::kYield, 0},
        {20, unit, TraceEvent::kStart, 0},
        {30, unit, TraceEvent::kFinish, 0},
    };
    std::ostringstream os;
    write_chrome_trace(os, records, ChromeTraceOptions{1.0, false});
    const std::string text = os.str();
    // Two separate "run" spans, no instants (disabled).
    std::size_t spans = 0;
    for (std::size_t pos = 0; (pos = text.find("\"ph\":\"X\"", pos)) !=
                              std::string::npos;
         ++spans, ++pos) {
    }
    EXPECT_EQ(spans, 2u);
    EXPECT_EQ(text.find("\"ph\":\"i\""), std::string::npos);
}

TEST(TraceExportTest, OpenSpansAreClosedAtTraceEnd) {
    const void* unit = reinterpret_cast<const void*>(0x30);
    const std::vector<TraceRecord> records = {
        {0, unit, TraceEvent::kStart, 2},
    };
    std::ostringstream os;
    write_chrome_trace(os, records, ChromeTraceOptions{1.0, true});
    EXPECT_NE(os.str().find("\"ph\":\"X\""), std::string::npos);
}

TEST(TraceExportTest, EmptyInputIsValidJson) {
    std::ostringstream os;
    write_chrome_trace(os, {}, ChromeTraceOptions{1.0, true});
    EXPECT_EQ(os.str(), "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n]}\n");
}

// --- ring overwrite accounting ----------------------------------------------

TEST(TracerDroppedTest, OverflowIsCountedAndClearResets) {
    auto& tracer = Tracer::instance();
    tracer.clear();
    tracer.enable();
    const std::size_t extra = 100;
    for (std::size_t i = 0; i < Tracer::kRingCapacity + extra; ++i) {
        tracer.record(TraceEvent::kYield, nullptr);
    }
    tracer.disable();
    const TraceStats s = tracer.stats();
    EXPECT_EQ(s.dropped, extra);
    EXPECT_EQ(tracer.snapshot().size(), Tracer::kRingCapacity);
    tracer.clear();
    EXPECT_EQ(tracer.stats().dropped, 0u);
    EXPECT_EQ(tracer.snapshot().size(), 0u);
}

// --- unit-latency recording through the scheduler ----------------------------

TEST(MetricsRecordingTest, QueueDwellAndExecAreRecordedPerStream) {
    auto& metrics = Metrics::instance();
    metrics.reset();
    metrics.enable();
    {
        DequePool pool;
        XStream stream(0,
                       std::make_unique<Scheduler>(std::vector<Pool*>{&pool}));
        stream.attach_caller();
        for (int i = 0; i < 8; ++i) {
            auto* t = new Tasklet([] {});
            t->detached = true;
            pool.push(t);
        }
        while (stream.progress()) {
        }
        stream.detach_caller();
    }
    metrics.disable();
    std::uint64_t dwell = 0;
    std::uint64_t exec = 0;
    for (const StreamUnitMetrics& m : metrics.unit_metrics()) {
        if (m.stream == 0) {
            dwell += m.queue_dwell.count;
            exec += m.exec_time.count;
        }
    }
    EXPECT_EQ(dwell, 8u);
    EXPECT_EQ(exec, 8u);
    metrics.reset();
}

TEST(MetricsRecordingTest, WakeLatencyIsRecordedOnBlockWakePairs) {
#ifdef LWT_TSAN_BUILD
    GTEST_SKIP() << "ULT context switches are invisible to TSan";
#endif
    auto& metrics = Metrics::instance();
    metrics.reset();
    metrics.enable();
    {
        DequePool pool;
        XStream stream(0,
                       std::make_unique<Scheduler>(std::vector<Pool*>{&pool}));
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
    }
    metrics.disable();
    std::uint64_t wakes = 0;
    for (const StreamUnitMetrics& m : metrics.unit_metrics()) {
        wakes += m.wake_latency.count;
    }
    // rdtsc()==0 on non-x86: the blocked_at stamp is 0 there and no sample
    // is taken, so only assert on platforms with a cycle counter.
    if (lwt::arch::rdtsc() != 0) {
        EXPECT_GE(wakes, 1u);
    }
    metrics.reset();
}

// --- live pool depth on /metrics ---------------------------------------------

TEST(MetricsTextTest, StreamPoolDepthIsLive) {
    // The /metrics exposition samples every live stream's pools at scrape
    // time: queued-but-unrun units show up as lwt_stream_pool_depth.
    DequePool pool;
    Runtime rt(1, [&](unsigned) {
        return std::make_unique<Scheduler>(std::vector<Pool*>{&pool});
    });
    const auto depth_line = [] {
        std::ostringstream os;
        write_prometheus_text(os);
        const std::string text = os.str();
        const std::string key =
            "lwt_stream_pool_depth{stream=\"0\",rank=\"0\"} ";
        const std::size_t at = text.find(key);
        return at == std::string::npos
                   ? std::string("missing")
                   : text.substr(at + key.size(),
                                 text.find('\n', at) - at - key.size());
    };
    std::atomic<int> ran{0};
    const auto push = [&](int n) {
        for (int i = 0; i < n; ++i) {
            auto* t = new Tasklet([&] { ran.fetch_add(1); });
            t->detached = true;
            pool.push(t);
        }
    };
    push(5);
    EXPECT_EQ(depth_line(), "5");
    push(4);
    EXPECT_EQ(depth_line(), "9");
    rt.primary().run_until([&] { return ran.load() == 9; });
    EXPECT_EQ(depth_line(), "0");
}

TEST(MetricsTextTest, ReportPrintsHistogramsUnderTheirOwnHeading) {
    // Registry histogram rows follow the gauges; without a heading of
    // their own they would read as more gauges.
    auto& reg = MetricsRegistry::instance();
    reg.gauge("test.report_gauge").set(3);
    reg.histogram("sync.block_resume_ns").record(1500);
    std::ostringstream os;
    print_metrics_report(os);
    const std::string text = os.str();
    const std::size_t gauges = text.find("\ngauges:\n");
    const std::size_t heading = text.find("\nhistograms:\n");
    const std::size_t row = text.find("sync.block_resume_ns");
    ASSERT_NE(gauges, std::string::npos) << text;
    ASSERT_NE(heading, std::string::npos) << text;
    ASSERT_NE(row, std::string::npos) << text;
    EXPECT_LT(gauges, heading);
    EXPECT_LT(heading, row);
    reg.histogram("sync.block_resume_ns").reset();
}

// --- Runtime::reset_stats ----------------------------------------------------

TEST(RuntimeResetStatsTest, OneCallZeroesAllTelemetry) {
    Tracer::instance().clear();
    Tracer::instance().enable();
    Metrics::instance().enable();
    std::vector<std::unique_ptr<DequePool>> pools;
    for (int i = 0; i < 2; ++i) {
        pools.push_back(std::make_unique<DequePool>());
    }
    Runtime rt(2, [&](unsigned rank) {
        return std::make_unique<Scheduler>(
            std::vector<Pool*>{pools[rank].get()});
    });
    MetricsRegistry::instance().counter("test.reset.counter").inc();
    std::atomic<int> ran{0};
    for (int i = 0; i < 16; ++i) {
        auto* t = new Tasklet([&] { ran.fetch_add(1); });
        t->detached = true;
        pools[i % 2]->push(t);
    }
    while (ran.load() < 16) {
        rt.primary().progress();
    }
    EXPECT_GE(Tracer::instance().stats().of(TraceEvent::kFinish), 16u);

    rt.reset_stats();

    EXPECT_EQ(Tracer::instance().stats().of(TraceEvent::kFinish), 0u);
    EXPECT_EQ(rt.sched_stats().steal_attempts, 0u);
    for (const StreamUnitMetrics& m : Metrics::instance().unit_metrics()) {
        EXPECT_EQ(m.queue_dwell.count, 0u);
        EXPECT_EQ(m.exec_time.count, 0u);
    }
    EXPECT_EQ(
        MetricsRegistry::instance().counter("test.reset.counter").value(), 0u);
    Tracer::instance().disable();
    Metrics::instance().disable();
    Tracer::instance().clear();
    Metrics::instance().reset();
}

TEST(RuntimeResetStatsTest, PostResetRegistrySnapshotIsEmpty) {
    // Regression guard for counters added after the original reset_stats
    // audit (PR 3+): bump every post-PR3 registry family — reactor, timer,
    // sync, and a request-latency histogram — then assert one reset_stats
    // call leaves a completely zeroed registry snapshot. A counter that a
    // future subsystem registers but reset_values misses fails here.
    auto& reg = MetricsRegistry::instance();
    reg.counter("io.reactor.wakes").inc(3);
    reg.counter("io.reactor.polls").inc(5);
    reg.counter("io.timer.fires").inc(2);
    reg.counter("sync.suspends").inc(7);
    reg.counter("sched.stalls").inc(1);
    reg.gauge("sched.longest_unit_ms").set(42);
    reg.histogram("io.req_latency_ns").record(123);

    std::vector<std::unique_ptr<DequePool>> pools;
    pools.push_back(std::make_unique<DequePool>());
    Runtime rt(1, [&](unsigned) {
        return std::make_unique<Scheduler>(
            std::vector<Pool*>{pools[0].get()});
    });
    rt.reset_stats();

    const MetricsSnapshot snap = snapshot_metrics();
    for (const auto& e : snap.counters) {
        EXPECT_EQ(e.value, 0u) << "counter not reset: " << e.name;
    }
    for (const auto& e : snap.gauges) {
        EXPECT_EQ(e.value, 0) << "gauge not reset: " << e.name;
        EXPECT_EQ(e.max, 0) << "gauge max not reset: " << e.name;
    }
    for (const auto& e : snap.histograms) {
        EXPECT_EQ(e.hist.count, 0u) << "histogram not reset: " << e.name;
        EXPECT_EQ(e.hist.sum, 0u) << "histogram sum not reset: " << e.name;
    }
}

// --- concurrency stress (run under TSan via tools/tsan.sh) -------------------

TEST(MetricsStressTest, ConcurrentWritersAndSnapshots) {
    auto& tracer = Tracer::instance();
    auto& metrics = Metrics::instance();
    tracer.clear();
    metrics.reset();
    tracer.enable();
    metrics.enable();

    std::atomic<bool> stop{false};
    std::vector<std::thread> writers;
    for (int w = 0; w < 4; ++w) {
        writers.emplace_back([&, w] {
            std::uint64_t v = static_cast<std::uint64_t>(w);
            while (!stop.load(std::memory_order_relaxed)) {
                tracer.record(TraceEvent::kYield, &v);
                metrics.record_exec(++v);
                metrics.record_queue_dwell(v);
            }
        });
    }
    std::thread reader([&] {
        while (!stop.load(std::memory_order_relaxed)) {
            const TraceStats s = tracer.stats();
            EXPECT_LE(s.of(TraceEvent::kCreate), s.of(TraceEvent::kYield) + 1);
            for (const TraceRecord& r : tracer.snapshot()) {
                // Torn reads would surface as garbage event values here.
                EXPECT_LE(static_cast<std::size_t>(r.event), kTraceEventKinds);
            }
            (void)metrics.unit_metrics();
        }
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    stop.store(true);
    for (auto& t : writers) {
        t.join();
    }
    reader.join();
    tracer.disable();
    metrics.disable();
    tracer.clear();
    metrics.reset();
    MetricsRegistry::instance().reset_values();
}

TEST(MetricsStressTest, FourRecordersAgainstSnapshotAndReset) {
    // Four OS threads count and record into their own shards while another
    // thread snapshots and resets: resets never write a recorder's cells,
    // so this must be race-free under TSan, and once the recorders stop a
    // reset followed by a known workload reads back exactly.
    auto& reg = MetricsRegistry::instance();
    Counter& counter = reg.counter("test.stress.counter");
    Histogram& hist = reg.histogram("test.stress.hist");
    constexpr int kThreads = 4;
    constexpr std::uint64_t kPerThread = 1000;
    const auto record = [&](std::uint64_t n, std::uint64_t seed) {
        for (std::uint64_t i = 0; i < n; ++i) {
            counter.inc();
            hist.record(seed * 1000 + i);
        }
    };
    std::atomic<bool> stop{false};
    std::vector<std::thread> recorders;
    for (int w = 0; w < kThreads; ++w) {
        recorders.emplace_back([&, w] {
            while (!stop.load(std::memory_order_relaxed)) {
                record(64, static_cast<std::uint64_t>(w));
            }
        });
    }
    std::thread observer([&] {
        while (!stop.load(std::memory_order_relaxed)) {
            const MetricsSnapshot snap = snapshot_metrics();
            (void)snap.counter("test.stress.counter");
            reg.reset_values();
        }
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    stop.store(true);
    for (auto& t : recorders) {
        t.join();
    }
    observer.join();

    reg.reset_values();
    EXPECT_EQ(counter.value(), 0u);
    EXPECT_EQ(hist.snapshot().count, 0u);
    std::vector<std::thread> again;
    for (int w = 0; w < kThreads; ++w) {
        again.emplace_back(record, kPerThread, static_cast<std::uint64_t>(w));
    }
    for (auto& t : again) {
        t.join();
    }
    EXPECT_EQ(counter.value(), kThreads * kPerThread);
    const HistogramSnapshot h = hist.snapshot();
    EXPECT_EQ(h.count, kThreads * kPerThread);
    std::uint64_t in_buckets = 0;
    for (const std::uint64_t b : h.buckets) {
        in_buckets += b;
    }
    EXPECT_EQ(in_buckets, h.count);
    reg.reset_values();
}

}  // namespace
