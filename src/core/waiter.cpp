#include "core/waiter.hpp"

#include "arch/cpu.hpp"
#include "core/metrics.hpp"
#include "core/xstream.hpp"
#include "sync/wait_table.hpp"

namespace lwt::core {

namespace {

/// Counted at park ENTRY (not at wake) so a concurrent observer — e.g. a
/// lock holder deciding when every contender has actually suspended — can
/// see the parks while the waiters are still blocked.
void record_sync_suspend() noexcept {
    static Counter& suspends =
        MetricsRegistry::instance().counter("sync.suspends");
    suspends.inc();
}

void record_sync_wake(std::uint64_t ticks) noexcept {
    static LatencyHistogram& hist =
        MetricsRegistry::instance().histogram("sync.wake_latency_ticks");
    hist.record(ticks);
}

/// Thread-side wait used by both SyncBlocker and (via the installed hooks)
/// sync::WaitTable: a bare thread sleeps, an attached stream keeps serving
/// its pools (XStream::wait_attached) so the runtime it is part of cannot
/// starve while it blocks.
void thread_wait_impl(sync::ThreadParker& parker, XStream* stream) noexcept {
    if (stream != nullptr) {
        stream->wait_attached(parker);
    } else {
        parker.wait();
    }
}

// --- hooks handed to sync::WaitTable ---------------------------------------

void* hook_current() noexcept { return Ult::current(); }

void hook_arm(void* ult) noexcept {
    static_cast<Ult*>(ult)->state.store(State::kBlocking,
                                        std::memory_order_release);
}

void hook_cancel(void* ult) noexcept {
    static_cast<Ult*>(ult)->state.store(State::kRunning,
                                        std::memory_order_relaxed);
}

void hook_suspend(void* ult) noexcept {
    static_cast<Ult*>(ult)->suspend(YieldStatus::kBlocked);
}

void hook_wake(void* ult) noexcept { Ult::wake(static_cast<Ult*>(ult)); }

void hook_thread_wait(sync::ThreadParker& parker) noexcept {
    thread_wait_impl(parker, XStream::current());
}

bool hook_metrics_enabled() noexcept {
    return Metrics::instance().enabled();
}

constexpr sync::UltWaitOps kWaitOps{
    &hook_current,  &hook_arm,
    &hook_cancel,   &hook_suspend,
    &hook_wake,     &hook_thread_wait,
    &hook_metrics_enabled, &record_sync_wake,
    &record_sync_suspend,
};

}  // namespace

void ensure_sync_wait_ops() noexcept {
    sync::install_ult_wait_ops(&kWaitOps);
}

void wake_sync_waiter(SyncWaiter* w) noexcept {
    if (w->kind == SyncWaiter::Kind::kUlt) {
        Ult::wake(static_cast<Ult*>(w->ptr));
    } else {
        static_cast<sync::ThreadParker*>(w->ptr)->notify();
    }
}

void wake_sync_chain(SyncWaiter* chain) noexcept {
    while (chain != nullptr) {
        SyncWaiter* const next = chain->next;
        wake_sync_waiter(chain);
        chain = next;
    }
}

SyncBlocker::SyncBlocker() noexcept
    : self_(Ult::current()),
      stream_(self_ == nullptr ? XStream::current() : nullptr) {}

void SyncBlocker::prepare(SyncWaiter& node) noexcept {
    node_ = &node;
    node.block_tsc = Metrics::instance().enabled() ? arch::rdtsc() : 0;
    if (self_ != nullptr) {
        node.kind = SyncWaiter::Kind::kUlt;
        node.ptr = self_;
        // Arm the kBlocking/kWakePending handshake BEFORE the node is
        // published: the waker may call Ult::wake the instant the
        // primitive's guard drops.
        self_->state.store(State::kBlocking, std::memory_order_release);
        return;
    }
    parker_.emplace(stream_ != nullptr ? stream_->parking_lot() : nullptr);
    node.kind = SyncWaiter::Kind::kParker;
    node.ptr = &*parker_;
}

void SyncBlocker::cancel(SyncWaiter& /*node*/) noexcept {
    if (self_ != nullptr) {
        self_->state.store(State::kRunning, std::memory_order_relaxed);
    }
    node_ = nullptr;
}

void SyncBlocker::wait() noexcept {
    if (node_ != nullptr && node_->block_tsc != 0) {
        record_sync_suspend();
    }
    if (self_ != nullptr) {
        self_->suspend(YieldStatus::kBlocked);
    } else {
        thread_wait_impl(*parker_, stream_);
    }
    if (node_ != nullptr && node_->block_tsc != 0) {
        record_sync_wake(arch::rdtsc() - node_->block_tsc);
    }
}

}  // namespace lwt::core
