// trace.hpp — lightweight lifecycle tracing for work units.
//
// Real LWT runtimes ship introspection (ABT_info, Qthreads' performance
// hooks); this is ours. When enabled, the kernel records unit lifecycle
// events (create/start/yield/block/wake/finish) into per-thread ring
// buffers; a snapshot merges them for analysis or Chrome-trace export
// (trace_export.hpp). Disabled (the default) the cost is one relaxed
// atomic load per hook.
//
//   Tracer::instance().enable();
//   ... run work ...
//   TraceStats s = Tracer::instance().stats();   // counts per event kind
//   auto events = Tracer::instance().snapshot(); // merged, time-ordered
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string_view>
#include <vector>

namespace lwt::core {

enum class TraceEvent : std::uint8_t {
    kCreate = 0,  ///< work unit constructed
    kStart,       ///< dispatched onto a stream
    kYield,       ///< suspended voluntarily (rescheduled)
    kBlock,       ///< suspended waiting (not rescheduled)
    kWake,        ///< made runnable by a waker
    kFinish,      ///< entry function completed
    kStall,       ///< watchdog flagged a stream as stalled (unit == stream)
};
inline constexpr std::size_t kTraceEventKinds = 7;

std::string_view trace_event_name(TraceEvent e);

/// One recorded event. `unit` is an opaque identity (the unit's address at
/// the time — may be reused after free; correlate via kCreate/kFinish).
/// `stream` is the rank of the execution stream driving the recording
/// thread, or kNoStream from unattached threads.
struct TraceRecord {
    std::uint64_t tsc;
    const void* unit;
    TraceEvent event;
    std::uint32_t stream;  ///< stream rank, or kNoStream
};
inline constexpr std::uint32_t kNoStream = 0xffffffffu;

/// Declare the execution-stream rank of the calling OS thread; recorded
/// into every subsequent TraceRecord (and tagged onto the thread's
/// telemetry shard by Metrics' per-stream records). XStream sets this on
/// loop entry / attach_caller; pass kNoStream to detach.
void set_this_thread_stream(std::uint32_t rank) noexcept;
[[nodiscard]] std::uint32_t this_thread_stream() noexcept;

/// Aggregated event counts.
struct TraceStats {
    std::array<std::uint64_t, kTraceEventKinds> counts{};
    /// Events overwritten by ring wrap-around, summed over all rings —
    /// nonzero means stats()/snapshot() saw only the newest kRingCapacity
    /// events per thread. clear() resets it.
    std::uint64_t dropped = 0;

    [[nodiscard]] std::uint64_t of(TraceEvent e) const {
        return counts[static_cast<std::size_t>(e)];
    }
};

/// Process-wide tracer. Thread-safe; hooks may fire from any stream.
class Tracer {
  public:
    static Tracer& instance();

    void enable() { enabled_.store(true, std::memory_order_release); }
    void disable() { enabled_.store(false, std::memory_order_release); }
    [[nodiscard]] bool enabled() const {
        return enabled_.load(std::memory_order_relaxed);
    }

    /// Hook entry point; no-op unless enabled.
    void record(TraceEvent event, const void* unit) {
        if (enabled()) {
            record_slow(event, unit);
        }
    }

    /// Counts per event kind over all buffers, plus the dropped
    /// (overwritten) total. Skips records a concurrent writer is mid-way
    /// through publishing.
    [[nodiscard]] TraceStats stats() const;

    /// Merged copy of every buffer, stably sorted by timestamp: records
    /// with equal tsc keep their per-thread insertion order. Caveats: tsc
    /// is only guaranteed monotonic per socket — on multi-socket machines
    /// without synchronized invariant TSCs, cross-thread ordering is
    /// approximate (per-thread subsequences remain exact). Rings keep only
    /// the newest kRingCapacity events per thread; check stats().dropped
    /// to detect overwritten history. Safe to call while hooks fire:
    /// records being written concurrently are skipped (never torn).
    [[nodiscard]] std::vector<TraceRecord> snapshot() const;

    /// Drop all recorded events and reset the dropped counters (buffers
    /// stay registered).
    void clear();

    /// Capacity of each per-thread ring (oldest events overwritten; see
    /// TraceStats::dropped).
    static constexpr std::size_t kRingCapacity = 1 << 14;

  private:
    // Per-slot sequence lock: the (single, per-ring) writer bumps `seq` to
    // odd, fills the payload with relaxed stores, then publishes with a
    // release store back to even. Readers that observe an odd or changed
    // seq skip the slot — a concurrent snapshot never returns a
    // half-written record. Payload fields are relaxed atomics so the
    // protocol is data-race-free under TSan, not just in practice.
    struct Slot {
        std::atomic<std::uint32_t> seq{0};
        std::atomic<std::uint64_t> tsc{0};
        std::atomic<const void*> unit{nullptr};
        std::atomic<std::uint32_t> stream{kNoStream};
        std::atomic<std::uint8_t> event{0};
    };
    struct Ring {
        std::array<Slot, kRingCapacity> slots;
        std::atomic<std::uint64_t> next{0};  // monotonically increasing
    };

    Tracer() = default;
    void record_slow(TraceEvent event, const void* unit);
    /// The calling thread's ring, kept in its telemetry shard.
    static Ring& ring_for_this_thread();
    /// Visit every thread's ring (arch::telemetry::for_each_shard).
    template <typename Fn>
    static void for_each_ring(Fn fn);
    /// Seqlock-guarded read of one slot; false when the writer is mid-way.
    static bool read_slot(const Slot& slot, TraceRecord& out) noexcept;

    std::atomic<bool> enabled_{false};
};

}  // namespace lwt::core
