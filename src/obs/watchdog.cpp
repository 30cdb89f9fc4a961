#include "obs/watchdog.hpp"

#include <algorithm>

#include "arch/cpu.hpp"
#include "core/metrics.hpp"
#include "core/stream_dir.hpp"
#include "core/trace.hpp"
#include "core/trace_export.hpp"

namespace lwt::obs {

Watchdog::Watchdog(std::uint32_t interval_ms)
    : interval_ms_(std::max<std::uint32_t>(interval_ms, 1)) {
    core::set_watchdog_armed(true);
    report_.interval_ms = interval_ms_;
    thread_ = std::thread([this] { run(); });
}

Watchdog::~Watchdog() {
    {
        std::lock_guard guard(mutex_);
        stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) {
        thread_.join();
    }
    core::set_watchdog_armed(false);
}

Watchdog::Report Watchdog::report() const {
    std::lock_guard guard(report_lock_);
    return report_;
}

void Watchdog::run() {
    const auto period = std::chrono::milliseconds(
        std::max<std::uint32_t>(interval_ms_ / 2, 1));
    std::unique_lock lock(mutex_);
    while (!stop_) {
        lock.unlock();
        sample();
        lock.lock();
        cv_.wait_for(lock, period, [this] { return stop_; });
    }
}

void Watchdog::sample() {
    const auto now = std::chrono::steady_clock::now();
    const auto samples = core::sample_streams();
    const double ticks_per_ms = core::tsc_ticks_per_us() * 1000.0;
    const std::uint64_t now_tsc = arch::rdtsc();

    Report next;
    next.interval_ms = interval_ms_;
    next.streams.reserve(samples.size());
    for (const auto& s : samples) {
        auto [it, fresh] = history_.try_emplace(
            s.id, History{s.progress_epoch, now, false});
        History& h = it->second;
        if (fresh || s.progress_epoch != h.epoch || !s.has_work) {
            // Progress was made (or there is nothing to progress on):
            // restart the no-progress clock and clear any stall verdict.
            h.epoch = s.progress_epoch;
            h.last_change = now;
            h.stalled = false;
        }
        const double frozen_ms =
            std::chrono::duration<double, std::milli>(now - h.last_change)
                .count();
        // Stall: a dedicated stream whose pools hold work but whose
        // progress loop has not turned over for a full interval. Streams
        // without their own thread (attached main threads between
        // scheduler runs) are exempt.
        if (s.dedicated && s.has_work && frozen_ms >= interval_ms_ &&
            !h.stalled) {
            h.stalled = true;
            core::MetricsRegistry::instance().counter("sched.stalls").inc();
            core::Tracer::instance().record(core::TraceEvent::kStall, s.id);
        }

        StreamVerdict v;
        v.rank = s.rank;
        v.dedicated = s.dedicated;
        v.progress_epoch = s.progress_epoch;
        v.pool_depth = s.pool_depth;
        v.stalled = h.stalled;
        v.no_progress_ms = h.stalled ? frozen_ms : 0.0;
        if (s.exec_start_tsc != 0 && now_tsc > s.exec_start_tsc &&
            ticks_per_ms > 0.0) {
            v.running_ms =
                static_cast<double>(now_tsc - s.exec_start_tsc) /
                ticks_per_ms;
        }
        next.any_stalled = next.any_stalled || v.stalled;
        next.longest_running_ms =
            std::max(next.longest_running_ms, v.running_ms);
        next.streams.push_back(v);
    }
    // Forget streams that died since the last pass.
    for (auto it = history_.begin(); it != history_.end();) {
        const void* id = it->first;
        const bool live =
            std::any_of(samples.begin(), samples.end(),
                        [id](const auto& s) { return s.id == id; });
        it = live ? std::next(it) : history_.erase(it);
    }
    core::MetricsRegistry::instance()
        .gauge("sched.longest_unit_ms")
        .set(static_cast<std::int64_t>(next.longest_running_ms));

    std::lock_guard guard(report_lock_);
    report_ = std::move(next);
}

}  // namespace lwt::obs
