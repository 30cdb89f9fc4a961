// runtime.hpp — bootstrap/teardown boilerplate shared by the personalities.
//
// Every library in the paper exposes the same life cycle (Table II row
// "Initialization"/"Finalization"); this class factors it: build pools,
// build one scheduler per stream through a caller-supplied factory, start
// the secondary streams, and drain/stop them at destruction. Stream 0 is
// the *primary* stream: it represents the program's main thread and is
// driven by explicit progress()/run_until() calls rather than a dedicated
// OS thread — matching how the paper's main thread creates work and joins.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "core/metrics.hpp"
#include "core/observability.hpp"
#include "core/trace.hpp"
#include "core/xstream.hpp"
#include "sync/idle_backoff.hpp"
#include "sync/parking_lot.hpp"

namespace lwt::core {

class Runtime {
  public:
    /// Builds the scheduler for stream `rank` (0 = primary).
    using SchedulerFactory =
        std::function<std::unique_ptr<Scheduler>(unsigned rank)>;

    /// Create `num_streams` streams (>= 1). Streams 1..n-1 get dedicated OS
    /// threads; stream 0 adopts the calling thread.
    ///
    /// `idle` selects the streams' idle ladder (spin/backoff/park; see
    /// docs/idle_loop.md); Settings::idle (LWT_IDLE_POLICY / glt::init)
    /// overrides the policy field. The runtime owns a ParkingLot and
    /// attaches it as the waker of every pool reachable through the
    /// schedulers, so kPark works out of the box.
    Runtime(std::size_t num_streams, const SchedulerFactory& factory,
            sync::IdleConfig idle = {});

    /// Locality-aware form: `locality` (an arch::LocalityMap over the same
    /// stream count) stamps each stream's placement, and — when
    /// locality.should_bind() — pins every stream's OS thread (including
    /// the adopted primary/calling thread) to its planned CPU before the
    /// scheduling loop runs. The factory typically derives tiered victim
    /// lists from the same map (LocalityMap::victim_tiers).
    Runtime(std::size_t num_streams, const SchedulerFactory& factory,
            arch::LocalityMap locality, sync::IdleConfig idle = {});
    ~Runtime();
    Runtime(const Runtime&) = delete;
    Runtime& operator=(const Runtime&) = delete;

    [[nodiscard]] std::size_t num_streams() const noexcept {
        return streams_.size();
    }
    [[nodiscard]] XStream& stream(std::size_t i) noexcept { return *streams_[i]; }
    [[nodiscard]] XStream& primary() noexcept { return *streams_.front(); }

    /// Resolve a stream count request: explicit value, else
    /// Settings::num_streams (LWT_NUM_STREAMS), else the hardware thread
    /// count.
    static std::size_t resolve_stream_count(std::size_t requested);

    /// The lot idle streams park on; pools created outside the schedulers
    /// can be wired to it with Pool::set_waker.
    [[nodiscard]] sync::ParkingLot& parking_lot() noexcept { return lot_; }

    /// The placement plan the streams were built under (a flat single-domain
    /// map when the locality-blind constructor was used).
    [[nodiscard]] const arch::LocalityMap& locality() const noexcept {
        return locality_;
    }

    /// Sum of every stream's steal/idle counters (see sched_stats.hpp),
    /// plus the lot's herd-wakeup savings (Pool::WakeMode::kOne).
    [[nodiscard]] SchedStats sched_stats() const noexcept {
        SchedStats total;
        for (const auto& s : streams_) {
            total += s->sched_stats();
        }
        total.wakeups_avoided += lot_.wakeups_avoided();
        return total;
    }
    void reset_sched_stats() noexcept {
        for (auto& s : streams_) {
            s->reset_sched_stats();
        }
    }

    /// Zero ALL telemetry in one call: every stream's SchedCounters, the
    /// process tracer, the per-stream unit-latency histograms, and the
    /// registry values — so benches can scope measurement to exactly the
    /// region after this call (the manual per-stream path is bug-prone:
    /// forgetting one stream skews aggregate rates).
    void reset_stats() noexcept {
        reset_sched_stats();
        lot_.reset_wake_stats();
        Tracer::instance().clear();
        Metrics::instance().reset();
        MetricsRegistry::instance().reset_values();
    }

  private:
    // Declared first so it detaches LAST: the shutdown flush (LWT_TRACE /
    // LWT_METRICS, see observability.hpp) must run after the streams have
    // stopped recording.
    ObservabilitySession obs_session_;
    sync::ParkingLot lot_;
    arch::LocalityMap locality_;  // before streams_: bind hooks reference it
    std::vector<std::unique_ptr<XStream>> streams_;
    std::vector<Pool*> wired_pools_;
};

}  // namespace lwt::core
