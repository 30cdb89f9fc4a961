// metrics.hpp — the one telemetry plane: named counters, gauges and
// log-linear latency histograms (in ns, via ticks_to_ns()), the per-stream
// unit-latency histograms — queue dwell (create->start), exec
// (dispatch->suspend/finish), block->wake — and the one snapshot every sink
// renders. Counters and histograms write to the calling OS thread's
// arch::telemetry shard, so no hot-path write touches a shared cacheline.
//
// Disabled (the default), every unit-latency hook costs one relaxed atomic
// load: the call sites guard on Metrics::instance().enabled() (asserted by
// BM_MetricsHookDisabled in bench/micro_ops.cpp).
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "arch/telemetry.hpp"
#include "core/sched_stats.hpp"
#include "sync/spinlock.hpp"

namespace lwt::core {

/// Monotonic event count: one cell of every thread's shard, summed on
/// read. reset() stores the sum as a base; it writes no thread's cell.
class Counter {
  public:
    explicit Counter(std::uint32_t cell) noexcept : cell_(cell) {}
    void inc(std::uint64_t n = 1) noexcept {
        arch::telemetry::this_shard().add(cell_, n);
    }
    [[nodiscard]] std::uint64_t value() const noexcept {
        const std::uint64_t sum = arch::telemetry::sum(cell_);
        const std::uint64_t base = base_.load(std::memory_order_relaxed);
        return sum > base ? sum - base : 0;
    }
    void reset() noexcept {
        base_.store(arch::telemetry::sum(cell_), std::memory_order_relaxed);
    }

  private:
    std::uint32_t cell_;
    std::atomic<std::uint64_t> base_{0};
};

/// Instantaneous level with a high-water mark.
class Gauge {
  public:
    void set(std::int64_t v) noexcept {
        value_.store(v, std::memory_order_relaxed);
        std::int64_t prev = max_.load(std::memory_order_relaxed);
        while (v > prev && !max_.compare_exchange_weak(
                               prev, v, std::memory_order_relaxed)) {
        }
    }
    [[nodiscard]] std::int64_t value() const noexcept {
        return value_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::int64_t max() const noexcept {
        return max_.load(std::memory_order_relaxed);
    }
    void reset() noexcept {
        value_.store(0, std::memory_order_relaxed);
        max_.store(0, std::memory_order_relaxed);
    }

  private:
    std::atomic<std::int64_t> value_{0};
    std::atomic<std::int64_t> max_{0};
};

/// Plain log-linear histogram (the layout of perfbench/stats.hpp's
/// LogLinearHistogram): exact below 32, then 32 linear sub-buckets per
/// power of two, so a bucket is at most 1/32 of its lower edge wide and
/// its midpoint within 1/64 of any value in it.
struct HistogramSnapshot {
    static constexpr unsigned kSubBits = 5;
    static constexpr std::size_t kSub = std::size_t{1} << kSubBits;
    static constexpr std::size_t kBuckets = kSub + (64 - kSubBits) * kSub;

    [[nodiscard]] static constexpr std::size_t bucket_of(
        std::uint64_t v) noexcept {
        if (v < kSub) {
            return static_cast<std::size_t>(v);
        }
        const unsigned shift =
            static_cast<unsigned>(std::bit_width(v)) - 1 - kSubBits;
        return kSub * (shift + 1) +
               static_cast<std::size_t>((v >> shift) - kSub);
    }
    /// Smallest value of bucket `b`, and how many values it spans.
    [[nodiscard]] static constexpr std::uint64_t bucket_lower(
        std::size_t b) noexcept {
        return b < kSub ? b : (kSub + b % kSub) * bucket_width(b);
    }
    [[nodiscard]] static constexpr std::uint64_t bucket_width(
        std::size_t b) noexcept {
        return b < 2 * kSub ? 1 : std::uint64_t{1} << (b / kSub - 1);
    }

    std::vector<std::uint64_t> buckets;  ///< empty until a sample lands
    std::uint64_t count = 0;
    std::uint64_t sum = 0;

    [[nodiscard]] double mean() const noexcept {
        return count == 0 ? 0.0
                          : static_cast<double>(sum) /
                                static_cast<double>(count);
    }
    /// Nearest-rank quantile (q in [0, 1]) interpolated inside its bucket;
    /// 0 when empty. Within 1/64 of the exact value on a smooth
    /// distribution, and never off by more than its bucket's width.
    [[nodiscard]] double quantile(double q) const noexcept;
};

/// A latency histogram: one storage block per recording thread, allocated
/// on its first record. reset() moves to a new epoch; each thread zeroes
/// its own block on its next record, and snapshots skip stale blocks.
class Histogram {
  public:
    explicit Histogram(std::uint32_t slot) noexcept : slot_(slot) {}

    void record(std::uint64_t v) noexcept;
    /// Merged over every thread's block, or only over the threads that
    /// last recorded a per-stream sample under `stream`.
    [[nodiscard]] HistogramSnapshot snapshot(
        std::optional<std::uint32_t> stream = std::nullopt) const;
    void reset() noexcept { epoch_.fetch_add(1, std::memory_order_relaxed); }

  private:
    std::uint32_t slot_;
    std::atomic<std::uint64_t> epoch_{1};
};

/// An rdtsc delta in nanoseconds.
[[nodiscard]] std::uint64_t ticks_to_ns(std::uint64_t ticks) noexcept;

/// Histogram slots below this hold Metrics' per-stream unit histograms.
inline constexpr std::uint32_t kUnitHistograms = 3;

struct MetricsSnapshot;

/// Process-wide registry of *named* metrics. Registration (first lookup of
/// a name) takes a spinlock; the references it returns stay valid for the
/// process. Values survive until reset_values().
class MetricsRegistry {
  public:
    static MetricsRegistry& instance();

    Counter& counter(std::string_view name);
    Gauge& gauge(std::string_view name);
    Histogram& histogram(std::string_view name);

    /// Zero every registered value (names stay registered).
    void reset_values();

  private:
    friend MetricsSnapshot snapshot_metrics();

    template <typename T>
    struct Cell {
        template <typename... Args>
        explicit Cell(std::string_view n, Args... args)
            : name(n), metric(args...) {}
        std::string name;
        T metric;
    };

    MetricsRegistry() = default;

    sync::Spinlock lock_;
    std::deque<Cell<Counter>> counters_;  // deques never move their cells
    std::deque<Cell<Gauge>> gauges_;
    std::deque<Cell<Histogram>> hists_;
    std::uint32_t next_cell_ = arch::telemetry::kFirstNamedCell;
    std::uint32_t next_slot_ = kUnitHistograms;
};

/// Fold one stream's steal telemetry into the registry:
/// "sched.steal.{attempts,hits}" plus
/// "sched.steal.tier.<sibling|package|remote>.{attempts,hits}". XStream
/// calls this at teardown, so the registry sees every stream that ever ran.
void accumulate_sched_counters(const SchedStats& stats);

/// Refresh the allocator gauges — alloc.slab.bytes and
/// alloc.stack.{maps,unmaps,thp_denied} — and register the
/// alloc.unit_cache.* counters (and, while LWT_CREATE_AUDIT has the
/// accounting armed, create.*), which read their telemetry cells directly.
/// Idempotent; the shutdown flush and every /metrics scrape call it.
void publish_alloc_metrics();

/// Per-stream unit-latency histograms in ns; stream == kNoStream
/// aggregates unattached threads.
struct StreamUnitMetrics {
    std::uint32_t stream;
    HistogramSnapshot queue_dwell;   ///< create -> first dispatch
    HistogramSnapshot exec_time;     ///< dispatch -> suspend/finish
    HistogramSnapshot wake_latency;  ///< block -> wake
};

/// The switch for every latency stamp, and the three per-stream unit
/// histograms. A record tags the calling thread's shard with its current
/// stream rank, and snapshots group the shards by it.
class Metrics {
  public:
    static Metrics& instance();

    void enable() { enabled_.store(true, std::memory_order_release); }
    void disable() { enabled_.store(false, std::memory_order_release); }
    [[nodiscard]] bool enabled() const {
        return enabled_.load(std::memory_order_relaxed);
    }

    // Hook entry points taking rdtsc deltas; call only when enabled() (the
    // guard is the call site's, so the disabled path stays one load).
    void record_queue_dwell(std::uint64_t ticks) noexcept;
    void record_exec(std::uint64_t ticks) noexcept;
    void record_wake_latency(std::uint64_t ticks) noexcept;

    /// Ascending by stream rank, the kNoStream aggregate (if any) last.
    [[nodiscard]] std::vector<StreamUnitMetrics> unit_metrics() const;
    void reset() noexcept;

  private:
    Metrics() = default;
    void record_unit(Histogram& h, std::uint64_t ticks) noexcept;

    std::atomic<bool> enabled_{false};
    Histogram queue_dwell_{0};
    Histogram exec_time_{1};
    Histogram wake_latency_{2};
};

/// One live stream's state, sampled under the StreamDirectory lock. `id`
/// (the stream's address, the watchdog's key) is valid only in a for_each.
struct StreamSample {
    const void* id;
    unsigned rank;
    bool dedicated;           ///< has its own OS thread (XStream::start)
    std::uint64_t executed;
    std::uint64_t progress_epoch;
    std::uint64_t exec_start_tsc;  ///< 0 unless the watchdog is armed
    std::size_t pool_depth;        ///< size_hint() summed over the pools
    bool has_work;                 ///< any scheduler pool non-empty
    SchedStats sched;
};

/// Sample every live execution stream, in directory (creation) order.
[[nodiscard]] std::vector<StreamSample> sample_streams();

/// Everything the process knows about itself at one instant.
struct MetricsSnapshot {
    struct CounterEntry {
        std::string name;
        std::uint64_t value;
    };
    struct GaugeEntry {
        std::string name;
        std::int64_t value;
        std::int64_t max;
    };
    struct HistogramEntry {
        std::string name;
        HistogramSnapshot hist;
    };
    std::vector<CounterEntry> counters;
    std::vector<GaugeEntry> gauges;
    std::vector<HistogramEntry> histograms;
    std::vector<StreamUnitMetrics> units;
    std::vector<StreamSample> streams;

    /// Counter `name`'s value; 0 when it is not registered.
    [[nodiscard]] std::uint64_t counter(std::string_view name) const;
};

/// The one function that walks the registry, the shards and the stream
/// directory: the shutdown report, metrics.json, /metrics and /stats all
/// render what it returns.
[[nodiscard]] MetricsSnapshot snapshot_metrics();

}  // namespace lwt::core
