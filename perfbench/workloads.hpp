// workloads.hpp — the three closed-loop workloads of the benchmark and the
// measurement plumbing they share.
//
// Every workload first takes `boots` set-up samples, each in a fresh child
// process: runtime construction + warm-up until the caches stop growing.
// Then it boots and warms up once more in this process and runs closed
// loops on that boot: an untraced window for the end-to-end metrics and/or
// a traced window for the per-layer ones. Spans are timed from the
// benchmark side, around calls into the runtime's public API.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "stats.hpp"

namespace perfbench {

/// Nanoseconds on CLOCK_MONOTONIC.
std::uint64_t now_ns() noexcept;

/// What one workload run does.
struct Plan {
    std::uint64_t seed = 1;
    int boots = 0;           ///< set-up samples, each in a child process
    double untraced_s = 0;   ///< closed-loop window with spans off (0: skip)
    double traced_s = 0;     ///< closed-loop window with spans on (0: skip)
    int chunks = 10;         ///< each window splits into this many chunks
};

/// One chunk of a closed-loop window. Latencies are summarised when the
/// chunk closes, so the samples never pile up in the measured process.
struct Chunk {
    double wall_s = 0;
    double cpu_s = 0;          ///< process user+sys over the chunk
    std::uint64_t ops = 0;     ///< completed, verified ops (= latency samples)
    double p50_ns = 0;
    double tail_q = 0;         ///< tail_quantile(ops, 0.99)
    double tail_ns = 0;        ///< latency at tail_q
    double host_steal = -1;    ///< see Window::host_steal()
};

/// A closed-loop window cut into equal-time chunks, so every end-to-end
/// figure can be reported as a median over chunks.
class Window {
  public:
    Window(double seconds, int chunks);
    /// True once the last chunk closed; callers stop issuing ops.
    [[nodiscard]] bool done() const noexcept { return closed_ == n_; }
    /// One verified op of latency `lat` completed at time `at`.
    void record(std::uint64_t lat, std::uint64_t at);
    [[nodiscard]] const std::vector<Chunk>& chunks() const noexcept {
        return chunks_;
    }
    /// Wall nanoseconds per verified op over the whole window.
    [[nodiscard]] double ns_per_op() const;
    /// Share of the host's CPU time stolen by the hypervisor while the
    /// window ran (/proc/stat steal); negative when it cannot be read.
    [[nodiscard]] double host_steal() const noexcept { return steal_; }

  private:
    void roll(std::uint64_t at);

    int n_;
    int closed_ = 0;
    std::uint64_t chunk_ns_;
    std::uint64_t chunk_start_;
    std::uint64_t chunk_end_;
    double cpu_start_;
    std::pair<std::uint64_t, std::uint64_t> host_start_;  // window's {steal, all}
    std::pair<std::uint64_t, std::uint64_t> host_chunk_;  // open chunk's
    double steal_ = -1;
    std::vector<Chunk> chunks_;
    std::vector<std::uint64_t> lat_;  // the open chunk's samples
};

/// Sampled span log: every layer boundary of one op in 64 is kept, in a
/// fixed ring, and written out as a Chrome/Perfetto trace at the end.
class SpanLog {
  public:
    /// `name` and `parent` (the span that caused this one, or nullptr)
    /// must be string literals; `id` groups the spans of one op.
    void add(const char* name, const char* parent, std::uint64_t id,
             std::uint64_t t0, std::uint64_t t1) noexcept;
    /// Whether the op with sequence number `seq` keeps its spans.
    [[nodiscard]] static bool sampled(std::uint64_t seq) noexcept {
        return seq % 64 == 0;
    }
    /// Write the kept spans as Chrome trace JSON; false on I/O error.
    bool write_chrome_json(const std::string& path) const;

  private:
    struct Span {
        const char* name = nullptr;
        const char* parent = nullptr;
        std::uint64_t id = 0;
        std::uint64_t t0 = 0;
        std::uint64_t t1 = 0;
    };
    static constexpr std::size_t kCapacity = std::size_t{1} << 13;
    std::vector<Span> ring_ = std::vector<Span>(kCapacity);
    std::atomic<std::uint64_t> next_{0};
};

/// Everything a workload run produced.
struct Report {
    std::vector<double> setup_s;        ///< one per set-up sample
    std::vector<double> setup_batches;  ///< warm-up batches of each sample
    std::vector<Chunk> untraced;        ///< chunks of the untraced window
    double untraced_ns_per_op = 0;
    double traced_ns_per_op = 0;
    double host_steal = -1;       ///< host_steal() of the untraced window
    std::vector<Metric> layers;   ///< per-layer metrics of the traced window
    std::uint64_t attempted = 0;  ///< every op issued, warm-up included
    std::uint64_t failed = 0;     ///< wrong results, errors and timeouts
    std::string bind;             ///< how the streams were pinned
    unsigned threads = 0;         ///< OS threads the workload runs on
};

/// Thread budget every workload must fit in (streams + clients + poller).
unsigned thread_budget();

Report run_fork_join(const Plan& plan, SpanLog& spans);
Report run_task_tree(const Plan& plan, SpanLog& spans);
Report run_rpc_kv(const Plan& plan, SpanLog& spans);

}  // namespace perfbench
