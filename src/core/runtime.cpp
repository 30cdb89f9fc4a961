#include "core/runtime.hpp"

#include <algorithm>

#include "arch/cpu.hpp"
#include "arch/settings.hpp"

namespace lwt::core {

Runtime::Runtime(std::size_t num_streams, const SchedulerFactory& factory,
                 sync::IdleConfig idle)
    : Runtime(num_streams, factory,
              arch::LocalityMap::flat(num_streams == 0 ? 1 : num_streams),
              idle) {}

Runtime::Runtime(std::size_t num_streams, const SchedulerFactory& factory,
                 arch::LocalityMap locality, sync::IdleConfig idle)
    : locality_(std::move(locality)) {
    if (num_streams == 0) {
        num_streams = 1;
    }
    idle.policy = arch::settings().idle.value_or(idle.policy);
    streams_.reserve(num_streams);
    for (std::size_t i = 0; i < num_streams; ++i) {
        streams_.push_back(std::make_unique<XStream>(
            static_cast<unsigned>(i), factory(static_cast<unsigned>(i))));
        streams_.back()->set_idle_config(idle);
        streams_.back()->set_parking_lot(&lot_);
        if (i < locality_.num_streams()) {
            streams_.back()->set_placement(locality_.placement(i));
        }
        if (i > 0 && locality_.should_bind()) {
            // Dedicated threads pin themselves before their loop starts.
            streams_.back()->set_on_start(
                [this, i] { locality_.bind_stream(i); });
        }
    }
    // Wire the lot as waker of every pool the schedulers can see, so a
    // push into any of them wakes parked streams. Victim-only pools are
    // some other stream's home pool, so scanning pools() covers them.
    // Wake mode: a pool visible to EVERY stream is truly shared — any
    // woken stream can consume from it, so a single-unit push may wake
    // just one stream (WakeMode::kOne) instead of the whole herd. A pool
    // missing from any stream's view keeps the broadcast (the one woken
    // stream might be unable to reach the work).
    std::vector<std::size_t> seen_in;  // parallel to wired_pools_
    for (auto& stream : streams_) {
        for (Pool* pool : stream->scheduler().pools()) {
            auto it =
                std::find(wired_pools_.begin(), wired_pools_.end(), pool);
            if (it == wired_pools_.end()) {
                wired_pools_.push_back(pool);
                seen_in.push_back(1);
            } else {
                ++seen_in[static_cast<std::size_t>(
                    it - wired_pools_.begin())];
            }
        }
    }
    for (std::size_t i = 0; i < wired_pools_.size(); ++i) {
        const bool shared_by_all = seen_in[i] == streams_.size();
        wired_pools_[i]->set_waker(&lot_, shared_by_all
                                              ? Pool::WakeMode::kOne
                                              : Pool::WakeMode::kAll);
    }
    if (locality_.should_bind()) {
        // The primary stream is the calling thread: pin it here, mirroring
        // what the on_start hooks do for the dedicated threads.
        locality_.bind_stream(0);
    }
    primary().attach_caller();
    for (std::size_t i = 1; i < num_streams; ++i) {
        streams_[i]->start();
    }
}

Runtime::~Runtime() {
    for (std::size_t i = 1; i < streams_.size(); ++i) {
        streams_[i]->stop_and_join();
    }
    // The herd-wakeup savings live in the lot, not in any stream's
    // counters; fold them into the registry alongside the streams' own
    // dtor-time folds so the post-run metrics dump sees them.
    SchedStats lot_stats;
    lot_stats.wakeups_avoided = lot_.wakeups_avoided();
    accumulate_sched_counters(lot_stats);
    primary().detach_caller();
    // The pools belong to the caller and outlive this runtime (and with it
    // the lot): detach the wakers before the lot dies.
    for (Pool* pool : wired_pools_) {
        pool->set_waker(nullptr);
    }
}

std::size_t Runtime::resolve_stream_count(std::size_t requested) {
    if (requested != 0) {
        return requested;
    }
    const std::size_t configured = arch::settings().num_streams;
    return configured != 0 ? configured : arch::hardware_threads();
}

}  // namespace lwt::core
