// lwomp.hpp — OpenMP-like programming model over lightweight threads.
//
// The paper's conclusion proposes putting a common LWT API "under several
// high-level PMs, such as OpenMP ... currently implemented on top of
// Pthreads or custom ULT solutions" (the authors later shipped this as
// GLTO). This module is that future work: the same constructs as the
// Pthreads-backed `momp::Runtime`, but where team members are ULTs and
// tasks are tasklets on the Argobots-like backend. Nested parallelism
// creates *work units* instead of OS threads — the mechanism behind the
// 48–130× Figure 7 gap — and `bench/ext_lwomp_vs_momp` measures exactly
// that claim.
//
// Because ULTs migrate between streams, region state is never stored in
// thread-local storage; the region body receives a TeamCtx& carrying its
// identity and the task/sync operations.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "abt/abt.hpp"
#include "core/sync_ult.hpp"

namespace lwt::lwomp {

struct Config {
    /// Execution streams backing every team (the only OS threads ever
    /// created). 0 resolves via LWT_NUM_STREAMS then hardware.
    std::size_t num_streams = 0;
};

class Runtime;
class Team;

/// Handle a region body uses to interact with its team. Valid only for the
/// duration of the body invocation it was passed to.
class TeamCtx {
  public:
    [[nodiscard]] std::size_t tid() const noexcept { return tid_; }
    [[nodiscard]] std::size_t num_threads() const noexcept;

    /// #pragma omp task — a stackless tasklet on the backing LWT runtime.
    void task(core::UniqueFunction fn);

    /// #pragma omp taskwait — drain this team's outstanding tasks
    /// cooperatively (the calling ULT yields while waiting).
    void taskwait();

    /// Team-wide barrier (ULT-suspending, not thread-blocking).
    void barrier();

    /// #pragma omp single nowait — true for the claiming member.
    bool single(const std::function<void()>& body);

    /// #pragma omp critical — team-scoped mutual exclusion.
    void critical(const std::function<void()>& body);

    /// Nested #pragma omp parallel: spawns a fresh team of ULTs.
    void parallel(const std::function<void(TeamCtx&)>& body,
                  std::size_t nthreads = 0);

  private:
    friend class Team;
    TeamCtx(Team& team, std::size_t tid) noexcept : team_(team), tid_(tid) {}

    Team& team_;
    std::size_t tid_;
};

/// OpenMP-over-LWT runtime instance.
class Runtime {
  public:
    explicit Runtime(Config config = {});
    ~Runtime();
    Runtime(const Runtime&) = delete;
    Runtime& operator=(const Runtime&) = delete;

    /// #pragma omp parallel: run body on `nthreads` team members — ULTs
    /// spread round-robin over the backing streams. Implicit barrier and
    /// task completion at region end. Reentrant: call from inside a region
    /// body (via TeamCtx::parallel) for nested parallelism.
    void parallel(const std::function<void(TeamCtx&)>& body,
                  std::size_t nthreads = 0);

    /// #pragma omp parallel for (static schedule).
    void parallel_for(std::size_t n,
                      const std::function<void(std::size_t)>& body,
                      std::size_t nthreads = 0);

    /// #pragma omp parallel for reduction(+).
    double parallel_reduce_sum(std::size_t n,
                               const std::function<double(std::size_t)>& body,
                               std::size_t nthreads = 0);

    [[nodiscard]] std::size_t num_streams() const;
    [[nodiscard]] std::size_t default_team_size() const {
        return default_team_;
    }

    /// OS threads this runtime ever created (== streams; teams add none).
    /// The counterpart of momp::Runtime::os_threads_created() for the
    /// extension experiment.
    [[nodiscard]] std::uint64_t os_threads_created() const {
        return num_streams() > 0 ? num_streams() - 1 : 0;
    }

    /// Work units (team-member ULTs + tasks) created so far (diagnostics).
    [[nodiscard]] std::uint64_t work_units_created() const {
        return units_created_.load(std::memory_order_relaxed);
    }

  private:
    friend class Team;
    friend class TeamCtx;

    abt::Library lib_;
    std::size_t default_team_;
    std::atomic<std::uint64_t> units_created_{0};
};

/// One parallel region's team: N member ULTs + shared task accounting.
/// Library-internal; exposed for tests.
class Team {
  public:
    Team(Runtime& rt, std::size_t nthreads);

    /// Spawn the members and block (cooperatively) until the region ends.
    void run(const std::function<void(TeamCtx&)>& body);

    [[nodiscard]] std::size_t size() const noexcept { return size_; }

  private:
    friend class TeamCtx;

    Runtime& rt_;
    const std::size_t size_;
    core::EventCounter tasks_;     // outstanding tasks
    core::UltBarrier barrier_;     // team barrier
    core::Mutex critical_;         // team-scoped critical section
    sync::Spinlock singles_lock_;
    std::vector<bool> singles_claimed_;
    std::vector<std::size_t> single_seq_;  // per-member encounter counts
};

}  // namespace lwt::lwomp
