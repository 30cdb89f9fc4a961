#include "momp/task_pool.hpp"

#include <span>

#include "arch/cpu.hpp"

namespace lwt::momp {

using core::SchedCounters;

TaskPool::TaskPool(Flavor flavor, std::size_t nthreads, sync::IdleConfig idle)
    : flavor_(flavor), nthreads_(nthreads == 0 ? 1 : nthreads),
      idle_config_(idle) {
    if (flavor_ == Flavor::kIcc) {
        per_thread_.reserve(nthreads_);
        for (std::size_t i = 0; i < nthreads_; ++i) {
            per_thread_.push_back(
                std::make_unique<queue::ChaseLevDeque<Task*>>(512));
        }
    }
}

TaskPool::~TaskPool() {
    // Defensive drain: a well-formed region completes all tasks before the
    // pool dies.
    if (flavor_ == Flavor::kGcc) {
        while (auto t = shared_.try_pop()) {
            delete *t;
        }
    } else {
        for (auto& d : per_thread_) {
            while (auto t = d->pop_bottom()) {
                delete *t;
            }
        }
    }
}

bool TaskPool::over_cutoff(std::size_t tid) const {
    if (flavor_ == Flavor::kGcc) {
        return outstanding_.load(std::memory_order_relaxed) >= cutoff();
    }
    return per_thread_[tid]->size_approx() >= cutoff();
}

bool TaskPool::any_queued() const {
    if (flavor_ == Flavor::kGcc) {
        return shared_.size() > 0;
    }
    for (const auto& d : per_thread_) {
        if (!d->empty()) {
            return true;
        }
    }
    return false;
}

void TaskPool::submit(std::size_t tid, core::UniqueFunction fn) {
    if (over_cutoff(tid)) {
        // Undeferred execution: both runtimes serialise beyond the cutoff.
        inlined_.fetch_add(1, std::memory_order_relaxed);
        fn();
        return;
    }
    auto* task = new Task{std::move(fn)};
    outstanding_.fetch_add(1, std::memory_order_release);
    if (flavor_ == Flavor::kGcc) {
        shared_.push(task);
    } else {
        per_thread_[tid]->push_bottom(task);  // owner push
    }
    // After the task is visible: wake ONE parked waiter. A single task can
    // occupy a single thread, and any team thread can run it (gcc's shared
    // queue is MPMC; icc threads steal when idle), so the rest of the herd
    // can stay parked — the avoided wakeups show up in sched_stats().
    lot_.notify_one();
}

void TaskPool::submit_bulk(std::size_t tid, std::size_t n,
                           const std::function<void(std::size_t)>& body) {
    if (n == 0) {
        return;
    }
    // Defer as many tasks as the cutoff leaves room for; the tail runs
    // inline (undeferred), matching n sequential submit() calls.
    std::size_t defer = 0;
    if (flavor_ == Flavor::kGcc) {
        const std::size_t out = outstanding_.load(std::memory_order_relaxed);
        defer = out < cutoff() ? cutoff() - out : 0;
    } else {
        const std::size_t depth = per_thread_[tid]->size_approx();
        defer = depth < cutoff() ? cutoff() - depth : 0;
    }
    if (defer > n) {
        defer = n;
    }
    if (defer > 0) {
        auto shared =
            std::make_shared<const std::function<void(std::size_t)>>(body);
        std::vector<Task*> batch;
        batch.reserve(defer);
        for (std::size_t i = 0; i < defer; ++i) {
            batch.push_back(
                new Task{core::UniqueFunction([shared, i] { (*shared)(i); })});
        }
        outstanding_.fetch_add(defer, std::memory_order_release);
        if (flavor_ == Flavor::kGcc) {
            shared_.push_bulk(std::span<Task* const>(batch));
        } else {
            per_thread_[tid]->push_bottom_bulk(batch.data(), batch.size());
        }
        lot_.notify_all();  // ONE wakeup for the whole visible batch
    }
    for (std::size_t i = defer; i < n; ++i) {
        inlined_.fetch_add(1, std::memory_order_relaxed);
        body(i);
    }
}

TaskPool::Task* TaskPool::take(std::size_t tid) {
    if (flavor_ == Flavor::kGcc) {
        return shared_.try_pop().value_or(nullptr);
    }
    if (auto t = per_thread_[tid]->pop_bottom()) {
        return *t;
    }
    // Work stealing: probe the other threads' deques starting from a
    // pseudo-random victim (icc triggers stealing only when idle).
    const std::size_t n = per_thread_.size();
    std::size_t start = (tid * 2654435761u) % n;
    for (std::size_t k = 0; k < n; ++k) {
        const std::size_t victim = (start + k) % n;
        if (victim == tid) {
            continue;
        }
        Task* stolen = nullptr;
        const queue::StealOutcome outcome =
            per_thread_[victim]->steal_top(stolen);
        // No locality tiers here: book to the package tier, as the flat
        // StealingScheduler does.
        counters_.record_steal(
            static_cast<std::size_t>(arch::StealTier::kPackage), outcome);
        if (outcome == queue::StealOutcome::kSuccess) {
            return stolen;
        }
    }
    return nullptr;
}

void TaskPool::execute(Task* task) {
    task->fn();
    delete task;
    if (outstanding_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        lot_.notify_all();  // last task done: release parked waiters
    }
}

bool TaskPool::run_one(std::size_t tid) {
    Task* task = take(tid);
    if (task == nullptr) {
        return false;
    }
    execute(task);
    return true;
}

void TaskPool::wait_all(std::size_t tid) {
    using Step = sync::IdleBackoff::Step;
    sync::IdleBackoff idle(idle_config_, &lot_);
    while (outstanding_.load(std::memory_order_acquire) > 0) {
        if (run_one(tid)) {
            idle.reset();
            continue;
        }
        // Someone else holds the last tasks; walk the idle ladder instead
        // of burning the core. The re-check keeps the park race-free: it
        // runs with interest registered, so a submit (or the last
        // completion) after it still aborts the park via the lot's epoch.
        const Step step = idle.step([this] {
            return outstanding_.load(std::memory_order_acquire) == 0 ||
                   any_queued();
        });
        switch (step) {
            case Step::kSpun:
                SchedCounters::bump(counters_.idle_spins);
                break;
            case Step::kYielded:
                SchedCounters::bump(counters_.idle_yields);
                break;
            case Step::kRang:
            case Step::kParkAborted:
                break;
            case Step::kParkNotified:
                SchedCounters::bump(counters_.parks);
                SchedCounters::bump(counters_.unparks);
                break;
            case Step::kParkTimeout:
                SchedCounters::bump(counters_.parks);
                SchedCounters::bump(counters_.park_timeouts);
                break;
        }
    }
}

}  // namespace lwt::momp
