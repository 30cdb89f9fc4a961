// idle_backoff.hpp — the idle-wait state machine shared by every consumer
// loop in the tree (XStream's scheduling loop, momp's task-wait loop).
//
// Escalation ladder: bounded spin with cpu_relax() -> OS yields with an
// exponentially growing pause train between them -> park on a ParkingLot.
// Finding work resets the ladder to the bottom. A pause train ends early
// once the lot's epoch moves (every Pool::push bumps it), so a stream deep
// in the ladder still picks up new work within a few pauses. The three
// rungs are also the three selectable policies, so benchmarks can ablate
// them (spin vs backoff vs park — see bench/ablation_sched.cpp and
// docs/idle_loop.md).
#pragma once

#include <chrono>
#include <cstdint>
#include <cstring>
#include <thread>

#include "arch/cpu.hpp"
#include "sync/parking_lot.hpp"

namespace lwt::sync {

/// How an idle consumer waits for work.
enum class IdlePolicy : std::uint8_t {
    kSpin,     ///< relax+yield every iteration (the pre-backoff behaviour)
    kBackoff,  ///< bounded spin, then yields with exponential pause trains
    kPark,     ///< backoff first, then block on a ParkingLot
};

struct IdleConfig {
    IdlePolicy policy = IdlePolicy::kBackoff;
    /// cpu_relax() iterations before the first OS yield.
    unsigned spin_limit = 64;
    /// Yields (each preceded by a doubling pause train) before parking.
    unsigned yield_limit = 16;
    /// Park safety net: bounds the sleep even if a producer bypasses the
    /// lot (e.g. pushes into a pool with no waker attached).
    std::chrono::microseconds park_timeout{1000};
};

/// Parse "spin" / "backoff" / "park" (e.g. from LWT_IDLE_POLICY); falls
/// back to `fallback` on anything else.
inline IdlePolicy idle_policy_from_string(const char* s,
                                          IdlePolicy fallback) noexcept {
    if (s == nullptr) {
        return fallback;
    }
    if (std::strcmp(s, "spin") == 0) {
        return IdlePolicy::kSpin;
    }
    if (std::strcmp(s, "backoff") == 0) {
        return IdlePolicy::kBackoff;
    }
    if (std::strcmp(s, "park") == 0) {
        return IdlePolicy::kPark;
    }
    return fallback;
}

inline const char* idle_policy_name(IdlePolicy p) noexcept {
    switch (p) {
        case IdlePolicy::kSpin: return "spin";
        case IdlePolicy::kBackoff: return "backoff";
        case IdlePolicy::kPark: return "park";
    }
    return "?";
}

/// Run up to `pauses` cpu_relax()es, ending early once `lot`'s epoch has
/// left `seen` or `done()` holds. `seen` must be read before the caller
/// last looked for work (as prepare_park() is taken before its re-check),
/// so a push that landed during that look still ends the train. The epoch
/// is read every 8 pauses (~150 ns): every read shares a line that each
/// push writes, and reading on every pause measured no faster wake-up.
/// Returns true when the train ended early. `lot` may be nullptr.
template <typename Done>
bool pause_train(unsigned pauses, const ParkingLot* lot, std::uint64_t seen,
                 Done&& done) {
    constexpr unsigned kStride = 8;  // pauses between epoch samples
    for (unsigned i = 0; i < pauses; ++i) {
        if (i % kStride == 0 &&
            ((lot != nullptr && lot->epoch() != seen) || done())) {
            return true;
        }
        arch::cpu_relax();
    }
    return false;
}

/// Per-consumer escalation state. Not thread-safe; one instance per loop.
class IdleBackoff {
  public:
    /// What one wait step did (callers feed this into their telemetry).
    enum class Step : std::uint8_t {
        kSpun,          ///< cpu_relax() burst
        kYielded,       ///< gave up the OS quantum
        kRang,          ///< the lot's epoch moved: train cut, no yield
        kParkAborted,   ///< re-check found work while registering to park
        kParkNotified,  ///< parked, woken by a producer
        kParkTimeout,   ///< parked, woke on the safety-net timeout
    };

    /// `lot` may be nullptr; kPark then degrades to kBackoff and the pause
    /// trains run to their end.
    explicit IdleBackoff(IdleConfig config, ParkingLot* lot = nullptr) noexcept
        : config_(config), lot_(lot) {}

    /// Found work: drop back to the cheap end of the ladder.
    void reset() noexcept {
        spins_ = 0;
        yields_ = 0;
    }

    /// Wait a little, escalating. `recheck()` is consulted with park
    /// interest already registered, immediately before blocking; it must
    /// return true if work (or a stop request) makes blocking pointless.
    template <typename Recheck>
    Step step(Recheck&& recheck) {
        if (config_.policy == IdlePolicy::kSpin) {
            // Pre-backoff behaviour: relax for the pipeline, yield for
            // oversubscribed hosts. Never escalates.
            arch::cpu_relax();
            std::this_thread::yield();
            return Step::kSpun;
        }
        if (spins_ < config_.spin_limit) {
            ++spins_;
            arch::cpu_relax();
            if (spins_ == config_.spin_limit) {
                sample_epoch();  // a train comes next, after one more look
            }
            return Step::kSpun;
        }
        const bool can_park =
            config_.policy == IdlePolicy::kPark && lot_ != nullptr;
        if (!can_park || yields_ < config_.yield_limit) {
            if (yields_ < config_.yield_limit) {
                // Exponential backoff: double the pause train before each
                // yield so contended steals thin out quickly. A push since
                // the caller's last look ends the train and skips the
                // yield; the rung stays where it was.
                const unsigned train = 1u << (yields_ < 10 ? yields_ : 10);
                if (pause_train(train, lot_, seen_epoch_,
                                [] { return false; })) {
                    sample_epoch();
                    return Step::kRang;
                }
                ++yields_;
            }
            std::this_thread::yield();
            if (yields_ < config_.yield_limit) {
                sample_epoch();
            }
            return Step::kYielded;
        }
        const std::uint64_t ticket = lot_->prepare_park();
        if (recheck()) {
            lot_->cancel_park();
            return Step::kParkAborted;
        }
        return lot_->park(ticket, config_.park_timeout)
                   ? Step::kParkNotified
                   : Step::kParkTimeout;
    }

    [[nodiscard]] const IdleConfig& config() const noexcept { return config_; }

  private:
    /// Taken at the end of a step, i.e. before the caller's next look for
    /// work. After a reset() with spin_limit == 0 the first train compares
    /// against an older sample: at worst one early kRang, never a miss.
    void sample_epoch() noexcept {
        if (lot_ != nullptr) {
            seen_epoch_ = lot_->epoch();
        }
    }

    IdleConfig config_;
    ParkingLot* lot_;
    unsigned spins_ = 0;
    unsigned yields_ = 0;
    std::uint64_t seen_epoch_ = 0;
};

}  // namespace lwt::sync
