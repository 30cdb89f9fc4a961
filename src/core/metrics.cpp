#include "core/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <set>
#include <stdexcept>

#include "arch/audit.hpp"
#include "arch/stack.hpp"
#include "core/scheduler.hpp"
#include "core/stream_dir.hpp"
#include "core/trace.hpp"
#include "core/trace_export.hpp"
#include "core/unit_cache.hpp"
#include "core/xstream.hpp"

namespace lwt::core {
namespace {

namespace telemetry = arch::telemetry;

/// Names of the fixed cells; create.count is the unit-cache allocations.
struct FixedName {
    std::string_view name;
    std::uint32_t cell;
};
constexpr FixedName kFixedNames[] = {
    {"alloc.unit_cache.allocs", telemetry::kUnitCacheAllocs},
    {"alloc.unit_cache.hits", telemetry::kUnitCacheHits},
    {"alloc.unit_cache.misses", telemetry::kUnitCacheMisses},
    {"create.count", telemetry::kUnitCacheAllocs},
    {"create.atomics", telemetry::kCreateAtomics},
    {"create.alloc_ticks", telemetry::kCreateAllocTicks},
    {"create.alloc_samples", telemetry::kCreateAllocSamples},
};

// A histogram's per-thread block: [epoch, count, sum, buckets...].
enum : std::size_t { kEpoch, kCount, kSum, kFirstBucket };
constexpr std::size_t kBlockWords = kFirstBucket + HistogramSnapshot::kBuckets;

}  // namespace

double HistogramSnapshot::quantile(double q) const noexcept {
    if (count == 0 || buckets.empty()) {
        return 0.0;
    }
    auto rank = static_cast<std::uint64_t>(
        std::ceil(std::clamp(q, 0.0, 1.0) * static_cast<double>(count)));
    rank = std::clamp<std::uint64_t>(rank, 1, count);
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
        if (seen + buckets[b] >= rank) {
            // Spread the bucket's samples evenly over the integers it holds
            // (an exact bucket below 64 returns its value).
            const double frac = (static_cast<double>(rank - seen) - 0.5) /
                                static_cast<double>(buckets[b]);
            return static_cast<double>(bucket_lower(b)) +
                   frac * static_cast<double>(bucket_width(b) - 1);
        }
        seen += buckets[b];
    }
    return static_cast<double>(bucket_lower(kBuckets - 1));
}

void Histogram::record(std::uint64_t v) noexcept {
    telemetry::Shard& shard = telemetry::this_shard();
    const std::uint64_t epoch = epoch_.load(std::memory_order_relaxed);
    std::atomic<std::uint64_t>* block =
        shard.histograms[slot_].load(std::memory_order_relaxed);
    if (block == nullptr) [[unlikely]] {
        block = new std::atomic<std::uint64_t>[kBlockWords] {};  // epoch 0
        shard.histograms[slot_].store(block, std::memory_order_release);
    }
    if (block[kEpoch].load(std::memory_order_relaxed) != epoch) [[unlikely]] {
        // New, or reset since this thread last recorded: zero our own
        // block, then publish the epoch so snapshots count it again.
        for (std::size_t i = kCount; i < kBlockWords; ++i) {
            block[i].store(0, std::memory_order_relaxed);
        }
        block[kEpoch].store(epoch, std::memory_order_release);
    }
    telemetry::bump(block[kCount], 1);
    telemetry::bump(block[kSum], v);
    telemetry::bump(block[kFirstBucket + HistogramSnapshot::bucket_of(v)], 1);
}

HistogramSnapshot Histogram::snapshot(
    std::optional<std::uint32_t> stream) const {
    HistogramSnapshot out;
    const std::uint64_t epoch = epoch_.load(std::memory_order_relaxed);
    telemetry::for_each_shard([&](const telemetry::Shard& s) {
        const std::atomic<std::uint64_t>* block =
            s.histograms[slot_].load(std::memory_order_acquire);
        if (block == nullptr ||
            block[kEpoch].load(std::memory_order_acquire) != epoch ||
            (stream && s.stream.load(std::memory_order_relaxed) != *stream)) {
            return;  // never recorded, stale since a reset, or filtered out
        }
        out.buckets.resize(HistogramSnapshot::kBuckets);
        for (std::size_t b = 0; b < HistogramSnapshot::kBuckets; ++b) {
            out.buckets[b] +=
                block[kFirstBucket + b].load(std::memory_order_relaxed);
        }
        out.count += block[kCount].load(std::memory_order_relaxed);
        out.sum += block[kSum].load(std::memory_order_relaxed);
    });
    return out;
}

std::uint64_t ticks_to_ns(std::uint64_t ticks) noexcept {
    static const double ns_per_tick = 1000.0 / tsc_ticks_per_us();
    const double ns = static_cast<double>(ticks) * ns_per_tick;
    return ns < 1.8e19 ? static_cast<std::uint64_t>(ns) : ~std::uint64_t{0};
}

MetricsRegistry& MetricsRegistry::instance() {
    // Leaked: stream teardown and thread_local destructor chains fold
    // counters here, and those can run during static destruction — after a
    // function-local static's destructor would already have fired.
    static MetricsRegistry* registry = new MetricsRegistry;
    return *registry;
}

Counter& MetricsRegistry::counter(std::string_view name) {
    std::lock_guard g(lock_);
    for (auto& cell : counters_) {
        if (cell.name == name) {
            return cell.metric;
        }
    }
    for (const FixedName& f : kFixedNames) {
        if (f.name == name) {
            return counters_.emplace_back(name, f.cell).metric;
        }
    }
    if (next_cell_ == telemetry::kCells) {
        throw std::length_error("lwt: out of telemetry counter cells");
    }
    return counters_.emplace_back(name, next_cell_++).metric;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
    std::lock_guard g(lock_);
    for (auto& cell : gauges_) {
        if (cell.name == name) {
            return cell.metric;
        }
    }
    return gauges_.emplace_back(name).metric;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
    std::lock_guard g(lock_);
    for (auto& cell : hists_) {
        if (cell.name == name) {
            return cell.metric;
        }
    }
    if (next_slot_ == telemetry::kHistogramSlots) {
        throw std::length_error("lwt: out of telemetry histogram slots");
    }
    return hists_.emplace_back(name, next_slot_++).metric;
}

void MetricsRegistry::reset_values() {
    std::lock_guard g(lock_);
    for (auto& cell : counters_) {
        cell.metric.reset();
    }
    for (auto& cell : gauges_) {
        cell.metric.reset();
    }
    for (auto& cell : hists_) {
        cell.metric.reset();
    }
}

void accumulate_sched_counters(const SchedStats& stats) {
    MetricsRegistry& reg = MetricsRegistry::instance();
    // Idle-ladder counters register whenever the stream was ever idle —
    // the join-path checks (zero idle yields under handoff joins) read
    // these even on single-stream runs that never steal.
    if (stats.idle_spins != 0 || stats.idle_yields != 0 || stats.parks != 0) {
        reg.counter("sched.idle.spins").inc(stats.idle_spins);
        reg.counter("sched.idle.yields").inc(stats.idle_yields);
        reg.counter("sched.park.count").inc(stats.parks);
        reg.counter("sched.park.timeouts").inc(stats.park_timeouts);
    }
    if (stats.wakeups_avoided != 0) {
        reg.counter("sched.park.wakeups_avoided").inc(stats.wakeups_avoided);
    }
    // Skip streams that never stole: keeps pristine runs (and the flat
    // single-stream configs) from registering all-zero tier names.
    if (stats.steal_attempts == 0) {
        return;
    }
    reg.counter("sched.steal.attempts").inc(stats.steal_attempts);
    reg.counter("sched.steal.hits").inc(stats.steal_hits);
    for (std::size_t t = 0; t < kStealTiers; ++t) {
        std::string base = "sched.steal.tier.";
        base += steal_tier_name(t);
        reg.counter(base + ".attempts").inc(stats.tier_attempts[t]);
        reg.counter(base + ".hits").inc(stats.tier_hits[t]);
    }
}

void publish_alloc_metrics() {
    MetricsRegistry& reg = MetricsRegistry::instance();
    const bool audited = arch::audit::enabled();
    for (const FixedName& f : kFixedNames) {
        if (audited || !f.name.starts_with("create.")) {
            (void)reg.counter(f.name);
        }
    }
    reg.gauge("alloc.slab.bytes")
        .set(static_cast<std::int64_t>(unit_cache_slab_bytes()));
    reg.gauge("alloc.stack.maps")
        .set(static_cast<std::int64_t>(arch::stack_map_count()));
    reg.gauge("alloc.stack.unmaps")
        .set(static_cast<std::int64_t>(arch::stack_unmap_count()));
    reg.gauge("alloc.stack.thp_denied")
        .set(static_cast<std::int64_t>(arch::stack_thp_denied_count()));
}

Metrics& Metrics::instance() {
    static Metrics metrics;
    return metrics;
}

void Metrics::record_unit(Histogram& h, std::uint64_t ticks) noexcept {
    // The thread's stream attachment can change (attach_caller, stream
    // start); tag the shard so its samples report under the current rank.
    telemetry::this_shard().stream.store(this_thread_stream(),
                                         std::memory_order_relaxed);
    h.record(ticks_to_ns(ticks));
}

void Metrics::record_queue_dwell(std::uint64_t ticks) noexcept {
    record_unit(queue_dwell_, ticks);
}

void Metrics::record_exec(std::uint64_t ticks) noexcept {
    record_unit(exec_time_, ticks);
}

void Metrics::record_wake_latency(std::uint64_t ticks) noexcept {
    record_unit(wake_latency_, ticks);
}

std::vector<StreamUnitMetrics> Metrics::unit_metrics() const {
    // Ranks of the threads that recorded a unit sample, ascending: the
    // kNoStream aggregate (the max uint32) comes last.
    std::set<std::uint32_t> ranks;
    telemetry::for_each_shard([&ranks](const telemetry::Shard& s) {
        for (std::uint32_t slot = 0; slot < kUnitHistograms; ++slot) {
            if (s.histograms[slot].load(std::memory_order_relaxed) != nullptr) {
                ranks.insert(s.stream.load(std::memory_order_relaxed));
            }
        }
    });
    std::vector<StreamUnitMetrics> out;
    for (const std::uint32_t rank : ranks) {
        out.push_back({rank, queue_dwell_.snapshot(rank),
                       exec_time_.snapshot(rank),
                       wake_latency_.snapshot(rank)});
    }
    return out;
}

void Metrics::reset() noexcept {
    queue_dwell_.reset();
    exec_time_.reset();
    wake_latency_.reset();
}

std::vector<StreamSample> sample_streams() {
    std::vector<StreamSample> out;
    StreamDirectory::instance().for_each([&out](XStream& s) {
        StreamSample sample;
        sample.id = &s;
        sample.rank = s.rank();
        sample.dedicated = s.has_dedicated_thread();
        sample.executed = s.executed();
        sample.progress_epoch = s.progress_epoch();
        sample.exec_start_tsc = s.exec_start_tsc();
        sample.pool_depth = 0;
        Scheduler& sched = s.scheduler();
        for (const Pool* pool : sched.pools()) {
            sample.pool_depth += pool->size_hint();
        }
        sample.has_work = sched.has_work();
        sample.sched = s.sched_stats();
        out.push_back(sample);
    });
    return out;
}

std::uint64_t MetricsSnapshot::counter(std::string_view name) const {
    const auto it =
        std::find_if(counters.begin(), counters.end(),
                     [name](const auto& c) { return c.name == name; });
    return it == counters.end() ? 0 : it->value;
}

MetricsSnapshot snapshot_metrics() {
    MetricsRegistry& reg = MetricsRegistry::instance();
    MetricsSnapshot snap;
    {
        std::lock_guard g(reg.lock_);
        for (const auto& cell : reg.counters_) {
            snap.counters.push_back({cell.name, cell.metric.value()});
        }
        for (const auto& cell : reg.gauges_) {
            snap.gauges.push_back(
                {cell.name, cell.metric.value(), cell.metric.max()});
        }
        for (const auto& cell : reg.hists_) {
            snap.histograms.push_back({cell.name, cell.metric.snapshot()});
        }
    }
    snap.units = Metrics::instance().unit_metrics();
    snap.streams = sample_streams();
    return snap;
}

}  // namespace lwt::core
