// workloads.cpp — fork_join (abt), task_tree (mth) and rpc_kv (gol + io),
// plus the window, span and probe plumbing they share. See README.md for
// what each workload loads and why.
#include "workloads.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sched.h>
#include <sys/epoll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <utility>

#include "abt/abt.hpp"
#include "core/metrics.hpp"
#include "core/observability.hpp"
#include "core/xstream.hpp"
#include "gol/gol.hpp"
#include "io/io.hpp"
#include "mth/mth.hpp"

namespace perfbench {

std::uint64_t now_ns() noexcept {
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000u +
           static_cast<std::uint64_t>(ts.tv_nsec);
}

unsigned thread_budget() {
    // Read once, before any runtime pins the calling thread.
    static const unsigned budget = [] {
        cpu_set_t set;
        CPU_ZERO(&set);
        if (sched_getaffinity(0, sizeof set, &set) == 0) {
            return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
        }
        return static_cast<unsigned>(std::max(1L, sysconf(_SC_NPROCESSORS_ONLN)));
    }();
    return budget;
}

namespace {

double cpu_seconds() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto tv = [](const timeval& t) {
        return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
    };
    return tv(ru.ru_utime) + tv(ru.ru_stime);
}

std::uint64_t splitmix(std::uint64_t& state) {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

std::uint64_t mix(std::uint64_t key) {
    return splitmix(key);
}

/// Histogram shard of the calling thread: its stream's rank, or the last
/// shard for threads that are not streams (clients, the fork_join main).
std::size_t shard() {
    const lwt::core::XStream* x = lwt::core::XStream::current();
    return x != nullptr ? x->rank() % (LogLinearHistogram::kShards - 1)
                        : LogLinearHistogram::kShards - 1;
}

/// One per-layer timing: a histogram of nanoseconds.
struct Probe {
    LogLinearHistogram hist;
    void rec(std::uint64_t ns) { hist.record(ns, shard()); }
    void rec_span(std::uint64_t t0, std::uint64_t t1) { rec(t1 > t0 ? t1 - t0 : 0); }
};

/// Deltas of the counters the per-layer ratios are built from. Read only at
/// phase boundaries where no unit is in flight: live SchedStats snapshots
/// can be torn, and the registry is process-wide.
struct Counters {
    lwt::core::SchedStats sched;
    std::uint64_t alloc_hits = 0;
    std::uint64_t alloc_allocs = 0;
    std::uint64_t reactor_wakes = 0;
    std::uint64_t reactor_polls = 0;

    static Counters read(const lwt::core::SchedStats& sched) {
        lwt::core::publish_alloc_metrics();
        auto& reg = lwt::core::MetricsRegistry::instance();
        Counters c;
        c.sched = sched;
        c.alloc_hits = reg.counter("alloc.unit_cache.hits").value();
        c.alloc_allocs = reg.counter("alloc.unit_cache.allocs").value();
        c.reactor_wakes = reg.counter("io.reactor.wakes").value();
        c.reactor_polls = reg.counter("io.reactor.polls").value();
        return c;
    }
};

/// Host CPU ticks from the first line of /proc/stat: {steal, all}. Both 0
/// when it cannot be read.
std::pair<std::uint64_t, std::uint64_t> host_cpu_ticks() {
    std::ifstream f("/proc/stat");
    std::string cpu;
    f >> cpu;
    // user nice system idle iowait irq softirq steal
    std::array<std::uint64_t, 8> t{};
    for (std::uint64_t& x : t) {
        f >> x;
    }
    if (!f || cpu != "cpu") {
        return {0, 0};
    }
    std::uint64_t all = 0;
    for (const std::uint64_t x : t) {
        all += x;
    }
    return {t[7], all};
}

/// Share of the host's CPU time stolen between two host_cpu_ticks()
/// readings; -1 when either could not be read.
double steal_share(const std::pair<std::uint64_t, std::uint64_t>& from,
                   const std::pair<std::uint64_t, std::uint64_t>& to) {
    if (from.second == 0 || to.second <= from.second) {
        return -1;
    }
    return static_cast<double>(to.first - from.first) /
           static_cast<double>(to.second - from.second);
}

/// Memory the caches have taken from the system so far: unit-cache blocks
/// carved from fresh slabs (misses) and stacks mapped.
std::pair<std::uint64_t, std::int64_t> fill_level() {
    lwt::core::publish_alloc_metrics();
    auto& reg = lwt::core::MetricsRegistry::instance();
    return {reg.counter("alloc.unit_cache.misses").value(),
            reg.gauge("alloc.stack.maps").value()};
}

constexpr int kMaxWarmBatches = 256;

/// Warm-up: run `batch` (a fixed number of ops, none left in flight) until
/// one batch takes no new memory — it carves no unit-cache block and maps
/// no stack — so the caches hold the workload's live set. Returns the
/// batches run, at most kMaxWarmBatches.
int warm_until_steady(const std::function<void()>& batch) {
    auto level = fill_level();
    for (int b = 1;; ++b) {
        batch();
        const auto next = fill_level();
        if (next == level || b == kMaxWarmBatches) {
            return b;
        }
        level = next;
    }
}

/// Takes one set-up sample in a forked child process: `boot` constructs the
/// runtime and warms it up, and returns the warm-up batches, or a negative
/// number (or counts a failed op in `rep`) when an op went wrong. A fresh
/// process starts with empty stack pools and unit caches, so every sample
/// pays the whole fill, as a program's first boot does. The sample is one
/// attempted op of `rep`. Call only while this process runs no other thread.
void sample_setup(Report& rep, const std::function<int()>& boot) {
    struct Sample {
        double seconds = 0;
        int batches = 0;
        bool ok = false;
    };
    ++rep.attempted;
    int fds[2] = {-1, -1};
    if (pipe(fds) != 0) {
        ++rep.failed;
        return;
    }
    const pid_t pid = fork();
    if (pid == 0) {
        ::close(fds[0]);
        const std::uint64_t failed = rep.failed;
        const std::uint64_t t0 = now_ns();
        Sample s;
        s.batches = boot();
        s.seconds = static_cast<double>(now_ns() - t0) * 1e-9;
        s.ok = s.batches > 0 && rep.failed == failed;
        // The runtime is left running: _exit ends its threads with the
        // process, and its teardown is not set-up.
        _exit(::write(fds[1], &s, sizeof s) == sizeof s ? 0 : 1);
    }
    ::close(fds[1]);
    Sample s;
    const bool got = pid > 0 && ::read(fds[0], &s, sizeof s) == sizeof s;
    ::close(fds[0]);
    int status = 1;
    while (pid > 0 && waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (!got || !s.ok || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        ++rep.failed;
        return;
    }
    rep.setup_s.push_back(s.seconds);
    rep.setup_batches.push_back(s.batches);
}

double ratio(std::uint64_t num, std::uint64_t den) {
    return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

void add_p50_p99(Report& rep, const char* base, const Probe& p, double scale,
                 const char* unit) {
    rep.layers.push_back({std::string(base) + "_p50", p.hist.quantile(0.5) * scale, unit});
    rep.layers.push_back({std::string(base) + "_p99", p.hist.tail(0.99) * scale, unit});
}

}  // namespace

// --- Window ------------------------------------------------------------------

Window::Window(double seconds, int chunks)
    : n_(std::max(1, chunks)),
      chunk_ns_(static_cast<std::uint64_t>(seconds * 1e9 / n_)),
      chunk_start_(now_ns()),
      chunk_end_(chunk_start_ + chunk_ns_),
      cpu_start_(cpu_seconds()),
      chunks_(static_cast<std::size_t>(n_)) {
    host_start_ = host_chunk_ = host_cpu_ticks();
}

void Window::roll(std::uint64_t at) {
    const double cpu = cpu_seconds();
    Chunk& c = chunks_[static_cast<std::size_t>(closed_)];
    c.wall_s = static_cast<double>(at - chunk_start_) * 1e-9;
    c.cpu_s = cpu - cpu_start_;
    c.tail_q = tail_quantile(lat_.size(), 0.99);
    c.p50_ns = quantile_of(lat_, 0.5);
    c.tail_ns = quantile_of(lat_, c.tail_q);
    lat_.clear();
    const auto host = host_cpu_ticks();
    c.host_steal = steal_share(host_chunk_, host);
    host_chunk_ = host;
    if (++closed_ == n_) {
        steal_ = steal_share(host_start_, host);
        return;
    }
    // The next chunk starts after the summary, which is not its work.
    chunk_start_ = now_ns();
    chunk_end_ = chunk_start_ + chunk_ns_;
    cpu_start_ = cpu_seconds();
}

void Window::record(std::uint64_t lat, std::uint64_t at) {
    if (done()) {
        return;
    }
    if (at >= chunk_end_) {
        roll(at);
        if (done()) {
            return;
        }
    }
    ++chunks_[static_cast<std::size_t>(closed_)].ops;
    lat_.push_back(lat);
}

double Window::ns_per_op() const {
    double wall = 0;
    std::uint64_t ops = 0;
    for (const Chunk& c : chunks_) {
        wall += c.wall_s;
        ops += c.ops;
    }
    return ops == 0 ? 0.0 : wall * 1e9 / static_cast<double>(ops);
}

// --- SpanLog -----------------------------------------------------------------

void SpanLog::add(const char* name, const char* parent, std::uint64_t id,
                  std::uint64_t t0, std::uint64_t t1) noexcept {
    const std::uint64_t i = next_.fetch_add(1, std::memory_order_relaxed);
    ring_[i % kCapacity] = Span{name, parent, id, t0, t1};
}

bool SpanLog::write_chrome_json(const std::string& path) const {
    std::ofstream out(path);
    if (!out) {
        return false;
    }
    const std::uint64_t n = std::min<std::uint64_t>(next_.load(), kCapacity);
    out << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n";
    bool first = true;
    for (std::uint64_t i = 0; i < n; ++i) {
        const Span& s = ring_[i];
        if (s.name == nullptr) {
            continue;
        }
        // One lane per span name keeps every lane's spans well nested.
        const auto lane = std::hash<std::string>{}(s.name) % 1000;
        out << (first ? "" : ",\n") << "{\"name\": " << json_string(s.name)
            << ", \"ph\": \"X\", \"pid\": 1, \"tid\": " << lane
            << ", \"ts\": " << format_number(static_cast<double>(s.t0) / 1e3)
            << ", \"dur\": "
            << format_number(static_cast<double>(s.t1 > s.t0 ? s.t1 - s.t0 : 0) / 1e3)
            << ", \"args\": {\"op\": " << s.id << ", \"parent\": "
            << (s.parent != nullptr ? json_string(s.parent) : std::string("null"))
            << "}}";
        first = false;
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

// --- fork_join: abt ULTs on private pools, joined from the main thread -------

namespace {

constexpr std::size_t kFjStreams = 4;
constexpr std::size_t kFjMaxPerStream = 4;
constexpr std::size_t kFjMaxUnits = kFjStreams * kFjMaxPerStream;
constexpr std::size_t kFjChunk = 256;  // floats per ULT: one Sscal chunk
constexpr std::size_t kFjInputs = 4096;
constexpr int kFjWarmBatch = 16;  // regions per warm-up batch
constexpr std::array<float, 4> kFjScales = {0.5f, 1.5f, 2.0f, 3.0f};

struct RegionInput {
    std::array<std::uint8_t, kFjStreams> per_stream{};  // ULTs per pool
    float a = 1.0f;
};

/// Timestamps of one ULT, written by the creator and the body (distinct
/// fields) and read after the join.
struct alignas(64) FjSlot {
    std::uint64_t created = 0;
    std::uint64_t start = 0;
    std::uint64_t end = 0;
};

struct FjProbes {
    Probe create, dwell, body, join;
};

void sscal(float* x, float a) {
    for (std::size_t i = 0; i < kFjChunk; ++i) {
        x[i] *= a;
    }
}

class ForkJoin {
  public:
    ForkJoin(std::uint64_t seed, std::size_t streams) : streams_(streams) {
        std::uint64_t s = seed ^ 0xF0F0'0001ull;
        inputs_.resize(kFjInputs);
        for (RegionInput& in : inputs_) {
            for (std::size_t p = 0; p < kFjStreams; ++p) {
                in.per_stream[p] =
                    static_cast<std::uint8_t>(1 + splitmix(s) % kFjMaxPerStream);
            }
            in.a = kFjScales[splitmix(s) % kFjScales.size()];
        }
        init_.resize(kFjMaxUnits * kFjChunk);
        for (float& x : init_) {
            x = static_cast<float>(splitmix(s) % 2048) / 64.0f - 16.0f;
        }
        data_ = init_;
        handles_.reserve(kFjMaxUnits);
    }

    /// One parallel region plus its serial check. Returns the region's
    /// latency (first create -> join returns), or nullopt on a wrong value.
    template <bool kTraced>
    std::optional<std::uint64_t> region(lwt::abt::Library& lib, FjProbes* pr,
                                        SpanLog* spans) {
        const RegionInput& in = inputs_[next_++ % inputs_.size()];
        const std::uint64_t id = ++op_id_;
        handles_.clear();
        std::size_t u = 0;
        const std::uint64_t t_begin = now_ns();
        for (std::size_t s = 0; s < streams_; ++s) {
            for (unsigned k = 0; k < in.per_stream[s]; ++k, ++u) {
                float* chunk = data_.data() + u * kFjChunk;
                const float a = in.a;
                if constexpr (kTraced) {
                    FjSlot* slot = &slots_[u];
                    const std::uint64_t t0 = now_ns();
                    handles_.push_back(lib.thread_create(
                        [chunk, a, slot] {
                            slot->start = now_ns();
                            sscal(chunk, a);
                            slot->end = now_ns();
                        },
                        static_cast<int>(s)));
                    slot->created = now_ns();
                    pr->create.rec_span(t0, slot->created);
                    if (SpanLog::sampled(id)) {
                        spans->add("abt.create", "fork_join.region", id, t0, slot->created);
                    }
                } else {
                    handles_.push_back(lib.thread_create([chunk, a] { sscal(chunk, a); },
                                                         static_cast<int>(s)));
                }
            }
        }
        const std::uint64_t t_join = now_ns();
        lib.join_all_free(handles_);
        const std::uint64_t t_end = now_ns();
        if constexpr (kTraced) {
            std::uint64_t last_end = 0;
            for (std::size_t i = 0; i < u; ++i) {
                const FjSlot& sl = slots_[i];
                last_end = std::max(last_end, sl.end);
                pr->dwell.rec_span(sl.created, sl.start);
                pr->body.rec_span(sl.start, sl.end);
                if (SpanLog::sampled(id)) {
                    spans->add("core.dwell", "abt.create", id, sl.created, sl.start);
                    spans->add("fork_join.body", "core.dwell", id, sl.start, sl.end);
                }
            }
            pr->join.rec_span(last_end, t_end);
            if (SpanLog::sampled(id)) {
                spans->add("abt.join_all_free", "fork_join.region", id, t_join, t_end);
                spans->add("fork_join.region", nullptr, id, t_begin, t_end);
            }
        }
        // Serial section: check every scaled value, then restore the input.
        bool ok = true;
        for (std::size_t i = 0; i < u * kFjChunk; ++i) {
            ok &= data_[i] == init_[i] * in.a;
        }
        std::copy_n(init_.begin(), u * kFjChunk, data_.begin());
        if (!ok) {
            return std::nullopt;
        }
        return t_end - t_begin;
    }

  private:
    std::size_t streams_;
    std::vector<RegionInput> inputs_;
    std::vector<float> init_;
    std::vector<float> data_;
    std::vector<lwt::abt::UnitHandle> handles_;
    std::array<FjSlot, kFjMaxUnits> slots_{};
    std::size_t next_ = 0;
    std::uint64_t op_id_ = 0;
};

}  // namespace

Report run_fork_join(const Plan& plan, SpanLog& spans) {
    Report rep;
    const std::size_t streams = std::min<std::size_t>(kFjStreams, thread_budget());
    rep.threads = static_cast<unsigned>(streams);
    rep.bind = "compact (abt Config::bind)";
    lwt::abt::Config cfg;
    cfg.num_xstreams = streams;
    cfg.pool_kind = lwt::abt::PoolKind::kPrivate;
    cfg.bind = lwt::arch::BindPolicy::kCompact;

    ForkJoin fj(plan.seed, streams);
    std::unique_ptr<lwt::abt::Library> lib;
    const auto op = [&](Window* w, FjProbes* pr) {
        ++rep.attempted;
        const auto lat = pr != nullptr ? fj.region<true>(*lib, pr, &spans)
                                       : fj.region<false>(*lib, nullptr, nullptr);
        if (!lat) {
            ++rep.failed;
        } else if (w != nullptr) {
            w->record(*lat, now_ns());
        }
    };
    const auto boot = [&] {
        lib = std::make_unique<lwt::abt::Library>(cfg);
        return warm_until_steady([&] {
            for (int i = 0; i < kFjWarmBatch; ++i) {
                op(nullptr, nullptr);
            }
        });
    };
    for (int b = 0; b < plan.boots; ++b) {
        sample_setup(rep, boot);
    }
    boot();
    if (plan.untraced_s > 0) {
        Window w(plan.untraced_s, plan.chunks);
        while (!w.done()) {
            op(&w, nullptr);
        }
        rep.untraced = w.chunks();
        rep.untraced_ns_per_op = w.ns_per_op();
        rep.host_steal = w.host_steal();
    }
    if (plan.traced_s > 0) {
        auto pr = std::make_unique<FjProbes>();
        const Counters before = Counters::read(lib->sched_stats());
        Window w(plan.traced_s, plan.chunks);
        std::uint64_t regions = 0;
        while (!w.done()) {
            op(&w, pr.get());
            ++regions;
        }
        const Counters after = Counters::read(lib->sched_stats());
        rep.traced_ns_per_op = w.ns_per_op();
        add_p50_p99(rep, "abt.create_ns", pr->create, 1.0, "ns");
        add_p50_p99(rep, "core.dwell_ns", pr->dwell, 1.0, "ns");
        add_p50_p99(rep, "abt.join_ns", pr->join, 1.0, "ns");
        rep.layers.push_back({"core.alloc_hit_ratio",
                              ratio(after.alloc_hits - before.alloc_hits,
                                    after.alloc_allocs - before.alloc_allocs),
                              "ratio"});
        rep.layers.push_back({"core.idle_yields_per_op",
                              ratio(after.sched.idle_yields - before.sched.idle_yields,
                                    regions),
                              "count/op"});
        rep.layers.push_back({"core.body_ns_p50", pr->body.hist.quantile(0.5), "ns"});
    }
    lib.reset();
    return rep;
}

// --- task_tree: mth work-first spawn/join trees ------------------------------

namespace {

constexpr int kTtCutoff = 10;
constexpr int kTtN = 23;  // every tree has this height; the seed draws the shapes
constexpr std::size_t kTtTrees = 64;
constexpr int kTtWarmBatch = 16;  // trees per warm-up batch

/// The tree recurrence: node (n, key) sums its children (n-1) and
/// (n-2-skew), where the key decides the skew, so trees are unbalanced in
/// a seed-dependent way. Leaves carry key-derived values.
long tree_serial(int n, std::uint64_t key) {
    if (n < 2) {
        return static_cast<long>((key >> 7) & 0xff) + n;
    }
    return tree_serial(n - 1, mix(key ^ 1)) +
           tree_serial(n - 2 - static_cast<int>(key & 1), mix(key ^ 2));
}

std::uint64_t tree_spawns(int n, std::uint64_t key) {
    if (n <= kTtCutoff) {
        return 0;
    }
    return 1 + tree_spawns(n - 1, mix(key ^ 1)) +
           tree_spawns(n - 2 - static_cast<int>(key & 1), mix(key ^ 2));
}

struct TreeInput {
    int n = 0;
    std::uint64_t key = 0;
    long expected = 0;
    std::uint64_t spawns = 0;
};

struct TtProbes {
    Probe join, leaf;
};

struct TreeCtx {
    lwt::mth::Library* lib = nullptr;
    TtProbes* pr = nullptr;
    SpanLog* spans = nullptr;  // set only for the sampled trees of a traced run
    std::uint64_t id = 0;
};

/// Spawn the (n-1) child as a ULT, recurse into the other in place, join.
/// Under work-first the child runs at once and the continuation becomes
/// stealable.
template <bool kTraced>
long tree_par(const TreeCtx& c, int n, std::uint64_t key) {
    if (n <= kTtCutoff) {
        if constexpr (kTraced) {
            const std::uint64_t t0 = now_ns();
            const long r = tree_serial(n, key);
            const std::uint64_t t1 = now_ns();
            c.pr->leaf.rec_span(t0, t1);
            if (c.spans != nullptr) {
                c.spans->add("mth.leaf", "task_tree.tree", c.id, t0, t1);
            }
            return r;
        } else {
            return tree_serial(n, key);
        }
    }
    long left = 0;
    lwt::mth::ThreadHandle child = c.lib->create(
        [&c, &left, n, key] { left = tree_par<kTraced>(c, n - 1, mix(key ^ 1)); });
    const long right = tree_par<kTraced>(c, n - 2 - static_cast<int>(key & 1), mix(key ^ 2));
    if constexpr (kTraced) {
        const std::uint64_t t0 = now_ns();
        child.join();
        const std::uint64_t t1 = now_ns();
        c.pr->join.rec_span(t0, t1);
        if (c.spans != nullptr) {
            c.spans->add("mth.join", "task_tree.tree", c.id, t0, t1);
        }
    } else {
        child.join();
    }
    return left + right;
}

}  // namespace

Report run_task_tree(const Plan& plan, SpanLog& spans) {
    Report rep;
    const std::size_t workers = std::min<std::size_t>(4, thread_budget());
    rep.threads = static_cast<unsigned>(workers);
    rep.bind = "compact (mth Config::bind)";
    lwt::mth::Config cfg;
    cfg.num_workers = workers;
    cfg.policy = lwt::mth::Policy::kWorkFirst;
    cfg.bind = lwt::arch::BindPolicy::kCompact;

    std::vector<TreeInput> trees(kTtTrees);
    std::uint64_t s = plan.seed ^ 0x7EE5'0002ull;
    for (TreeInput& t : trees) {
        t.n = kTtN;
        t.key = splitmix(s);
        t.expected = tree_serial(t.n, t.key);
        t.spawns = tree_spawns(t.n, t.key);
    }

    std::size_t next = 0;
    std::uint64_t op_id = 0;
    const auto op = [&](lwt::mth::Library& lib, Window* w, TtProbes* pr) -> std::uint64_t {
        const TreeInput& t = trees[next++ % trees.size()];
        ++rep.attempted;
        const std::uint64_t id = ++op_id;
        const bool sampled = pr != nullptr && SpanLog::sampled(id);
        const TreeCtx ctx{&lib, pr, sampled ? &spans : nullptr, id};
        const std::uint64_t t0 = now_ns();
        const long got = pr != nullptr ? tree_par<true>(ctx, t.n, t.key)
                                       : tree_par<false>(ctx, t.n, t.key);
        const std::uint64_t t1 = now_ns();
        if (got != t.expected) {
            ++rep.failed;
        } else if (w != nullptr) {
            w->record(t1 - t0, t1);
        }
        if (sampled) {
            spans.add("task_tree.tree", nullptr, id, t0, t1);
        }
        return t.spawns;
    };

    std::unique_ptr<lwt::mth::Library> lib;
    const auto boot = [&] {
        lib = std::make_unique<lwt::mth::Library>(cfg);
        int batches = 0;
        lib->run([&] {
            batches = warm_until_steady([&] {
                for (int i = 0; i < kTtWarmBatch; ++i) {
                    op(*lib, nullptr, nullptr);
                }
            });
        });
        return batches;
    };
    for (int b = 0; b < plan.boots; ++b) {
        sample_setup(rep, boot);
    }
    boot();
    lib->run([&] {
        if (plan.untraced_s > 0) {
            Window w(plan.untraced_s, plan.chunks);
            while (!w.done()) {
                op(*lib, &w, nullptr);
            }
            rep.untraced = w.chunks();
            rep.untraced_ns_per_op = w.ns_per_op();
            rep.host_steal = w.host_steal();
        }
        if (plan.traced_s > 0) {
            auto pr = std::make_unique<TtProbes>();
            const Counters before = Counters::read(lib->sched_stats());
            Window w(plan.traced_s, plan.chunks);
            std::uint64_t tasks = 0;
            while (!w.done()) {
                tasks += op(*lib, &w, pr.get());
            }
            const Counters after = Counters::read(lib->sched_stats());
            rep.traced_ns_per_op = w.ns_per_op();
            const std::uint64_t attempts =
                after.sched.steal_attempts - before.sched.steal_attempts;
            rep.layers.push_back(
                {"core.steal_hit_ratio",
                 ratio(after.sched.steal_hits - before.sched.steal_hits, attempts), "ratio"});
            rep.layers.push_back(
                {"core.steal_attempts_per_task", ratio(attempts, tasks), "count/task"});
            add_p50_p99(rep, "mth.join_ns", pr->join, 1.0, "ns");
            rep.layers.push_back({"mth.leaf_ns_p50", pr->leaf.hist.quantile(0.5), "ns"});
        }
    });
    lib.reset();
    return rep;
}

// --- rpc_kv: gol server over io sockets, one raw-socket client thread --------

namespace {

constexpr std::size_t kKvConns = 4;
constexpr std::size_t kKvKeysPerConn = 256;
constexpr std::size_t kKvKeys = kKvConns * kKvKeysPerConn;
constexpr std::size_t kKvValue = 1024;      // put payload and stored value
constexpr std::size_t kKvGetReply = 64;     // version + value prefix
constexpr std::size_t kKvBank = 64 * 1024;  // put payloads are slices of it
constexpr int kKvWarmBatch = 256;           // requests per warm-up batch
constexpr int kKvStallMs = 10000;           // no reply this long: fail the run
constexpr std::uint32_t kGet = 0;
constexpr std::uint32_t kPut = 1;

/// Wire header of requests and replies (host byte order; loopback only).
struct Header {
    std::uint32_t op = 0;   // request: kGet/kPut; reply: status (0 = ok)
    std::uint32_t key = 0;
    std::uint32_t seq = 0;
    std::uint32_t len = 0;  // payload bytes that follow
};

/// The key/value table: one fixed-size value and a version per key.
struct KvTable {
    std::vector<std::uint8_t> bytes = std::vector<std::uint8_t>(kKvKeys * kKvValue);
    std::vector<std::uint64_t> version = std::vector<std::uint64_t>(kKvKeys, 0);

    std::uint8_t* value(std::uint32_t key) { return bytes.data() + key * kKvValue; }

    /// FNV-1a over every version and value byte.
    [[nodiscard]] std::uint64_t checksum() const {
        std::uint64_t h = 0xcbf29ce484222325ull;
        const auto eat = [&h](const void* p, std::size_t n) {
            const auto* b = static_cast<const std::uint8_t*>(p);
            for (std::size_t i = 0; i < n; ++i) {
                h = (h ^ b[i]) * 0x100000001b3ull;
            }
        };
        eat(version.data(), version.size() * sizeof(std::uint64_t));
        eat(bytes.data(), bytes.size());
        return h;
    }
};

/// A request as the reader hands it to a worker; one per connection,
/// reused (the client has one request in flight per connection, so the
/// next read cannot land before the worker's reply is written).
struct Request {
    lwt::io::Socket* conn = nullptr;
    Header hdr;
    bool traced = false;
    std::uint64_t t_read = 0;  // request fully read
    std::array<std::uint8_t, kKvValue> payload{};
};

struct KvProbes {
    Probe service, service_self, chan_send, mutex_wait, write;
};

class KvServer {
  public:
    /// `probes` and `spans` outlive the server: a reader or worker may
    /// still record into them after the client saw the last reply.
    KvServer(std::size_t threads, const KvTable& init, KvProbes& probes, SpanLog& spans)
        : lib_(make_config(threads)), table_(init), probes_(&probes), spans_(&spans) {}

    /// Listen, start the workers and the acceptor; returns the port.
    std::optional<std::uint16_t> start() {
        auto l = lwt::io::Listener::listen(0);
        if (!l) {
            return std::nullopt;
        }
        listener_ = std::move(l.value());
        workers_.add(2);
        for (int i = 0; i < 2; ++i) {
            lib_.go([this] { worker(); });
        }
        readers_.add(static_cast<std::int64_t>(kKvConns));
        accepted_.add(1);
        lib_.go([this] { acceptor(); });
        return listener_.port();
    }
    void wait_accepted() { accepted_.wait(); }
    /// Fail a pending accept (the client could not connect every socket).
    void close_listener() { listener_.close(); }

    /// After the client closed its end: drain readers, then workers.
    void stop() {
        readers_.wait();
        chan_.close();
        workers_.wait();
        listener_.close();
    }

    /// Spans on or off for the requests read from now on.
    void set_traced(bool on) { traced_.store(on, std::memory_order_relaxed); }
    [[nodiscard]] lwt::core::SchedStats sched_stats() const { return lib_.sched_stats(); }
    [[nodiscard]] std::uint64_t errors() const { return errors_.load(); }
    /// Valid once stop() returned.
    [[nodiscard]] const KvTable& table() const { return table_; }

  private:
    static lwt::gol::Config make_config(std::size_t threads) {
        lwt::gol::Config c;
        c.num_threads = threads;
        return c;
    }

    /// Span id of a request: every connection numbers its own requests
    /// from 1, and owns the keys congruent to its index mod kKvConns.
    static std::uint64_t op_id(const Header& h) {
        return std::uint64_t{h.seq} * kKvConns + h.key % kKvConns;
    }

    void acceptor() {
        std::size_t c = 0;
        for (; c < kKvConns; ++c) {
            auto a = listener_.accept();
            if (!a) {
                break;
            }
            conns_[c] = std::move(a.value());
            const int one = 1;
            setsockopt(conns_[c].fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
            lib_.go([this, c] { reader(c); });
        }
        for (; c < kKvConns; ++c) {  // accept failed: release the missing readers
            errors_.fetch_add(1);
            readers_.done();
        }
        accepted_.done();
    }

    void reader(std::size_t c) {
        lwt::io::Socket& conn = conns_[c];
        Request& r = reqs_[c];
        for (;;) {
            Header h;
            if (!conn.read_exact(&h, sizeof h)) {
                break;  // the client closed: end of run
            }
            if (h.key >= kKvKeys || (h.op == kPut ? h.len != kKvValue : h.len != 0)) {
                errors_.fetch_add(1);
                break;
            }
            if (h.len != 0 && !conn.read_exact(r.payload.data(), h.len)) {
                errors_.fetch_add(1);
                break;
            }
            r.conn = &conn;
            r.hdr = h;
            r.traced = traced_.load(std::memory_order_relaxed);
            if (!r.traced) {
                if (!chan_.send(&r)) {
                    break;
                }
                continue;
            }
            const std::uint64_t t_read = now_ns();
            r.t_read = t_read;
            if (!chan_.send(&r)) {
                break;
            }
            const std::uint64_t t_sent = now_ns();
            probes_->chan_send.rec_span(t_read, t_sent);
            if (SpanLog::sampled(h.seq)) {
                spans_->add("core.chan_send", "gol.service", op_id(h), t_read, t_sent);
            }
        }
        readers_.done();
    }

    void worker() {
        std::array<std::uint8_t, sizeof(Header) + kKvGetReply> out{};
        while (auto p = chan_.recv()) {
            const Request& r = **p;
            // Copy everything the reply needs: once it is written, the
            // reader may reuse the request for the next one.
            const bool traced = r.traced;
            const std::uint64_t t_recv = traced ? now_ns() : 0;
            const std::uint64_t t_read = r.t_read;
            const Header h = r.hdr;
            lwt::io::Socket* conn = r.conn;
            Header rep{0, h.key, h.seq, 0};
            const std::uint64_t t_l0 = traced ? now_ns() : 0;
            mu_.lock();
            const std::uint64_t t_l1 = traced ? now_ns() : 0;
            std::uint64_t v = table_.version[h.key];
            if (h.op == kPut) {
                std::memcpy(table_.value(h.key), r.payload.data(), kKvValue);
                v = ++table_.version[h.key];
                rep.len = sizeof v;
            } else {
                std::memcpy(out.data() + sizeof(Header) + sizeof v, table_.value(h.key),
                            kKvGetReply - sizeof v);
                rep.len = kKvGetReply;
            }
            mu_.unlock();
            std::memcpy(out.data(), &rep, sizeof rep);
            std::memcpy(out.data() + sizeof(Header), &v, sizeof v);
            const std::uint64_t t_w0 = traced ? now_ns() : 0;
            if (!conn->write_all(out.data(), sizeof(Header) + rep.len)) {
                errors_.fetch_add(1);
            }
            if (!traced) {
                continue;
            }
            const std::uint64_t t_w1 = now_ns();
            KvProbes* pr = probes_;  // never reset: see the constructor
            pr->mutex_wait.rec_span(t_l0, t_l1);
            pr->write.rec_span(t_w0, t_w1);
            pr->service.rec_span(t_read, t_w1);
            // Self time: the service span minus its children — the
            // hand-over (read -> worker has it), the lock wait and the write.
            pr->service_self.rec(self_time_ns(
                {t_read, t_w1}, {{t_read, t_recv}, {t_l0, t_l1}, {t_w0, t_w1}}));
            if (SpanLog::sampled(h.seq)) {
                const std::uint64_t id = op_id(h);
                spans_->add("gol.service", nullptr, id, t_read, t_w1);
                spans_->add("core.chan_handover", "gol.service", id, t_read, t_recv);
                spans_->add("core.mutex_wait", "gol.service", id, t_l0, t_l1);
                spans_->add("io.write", "gol.service", id, t_w0, t_w1);
            }
        }
        workers_.done();
    }

    lwt::gol::Library lib_;
    KvTable table_;
    lwt::gol::Mutex mu_;  // guards table_ while the server runs
    lwt::io::Listener listener_;
    std::array<lwt::io::Socket, kKvConns> conns_;
    std::array<Request, kKvConns> reqs_;
    lwt::gol::Chan<Request*> chan_;  // unbuffered: reader -> worker rendezvous
    lwt::gol::WaitGroup readers_, workers_, accepted_;
    std::atomic<bool> traced_{false};
    KvProbes* probes_;
    SpanLog* spans_;
    std::atomic<std::uint64_t> errors_{0};
};

/// The load generator: one OS thread, kKvConns blocking-free loopback
/// connections multiplexed with its own epoll, one request in flight on
/// each. It keeps a shadow copy of the table (each connection owns a
/// disjoint key set, so the shadow is exact) and checks every reply byte
/// for byte.
class KvClient {
  public:
    KvClient(std::uint64_t seed, const KvTable& init, const std::vector<std::uint8_t>& bank)
        : shadow_(init), bank_(bank) {
        for (std::size_t c = 0; c < kKvConns; ++c) {
            conns_[c].rng = seed ^ (0xC11E'0000ull + c);
        }
    }
    ~KvClient() { close(); }
    KvClient(const KvClient&) = delete;
    KvClient& operator=(const KvClient&) = delete;

    bool connect(std::uint16_t port) {
        epfd_ = epoll_create1(EPOLL_CLOEXEC);
        if (epfd_ < 0) {
            return false;
        }
        for (std::size_t c = 0; c < kKvConns; ++c) {
            const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
            if (fd < 0) {
                return false;
            }
            conns_[c].fd = fd;
            sockaddr_in addr{};
            addr.sin_family = AF_INET;
            addr.sin_port = htons(port);
            addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
            if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
                return false;
            }
            const int one = 1;
            setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
            fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) | O_NONBLOCK);
            epoll_event ev{};
            ev.events = EPOLLIN;
            ev.data.u64 = c;
            if (epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
                return false;
            }
        }
        return true;
    }

    void close() {
        for (Conn& c : conns_) {
            if (c.fd >= 0) {
                ::close(c.fd);
                c.fd = -1;
            }
        }
        if (epfd_ >= 0) {
            ::close(epfd_);
            epfd_ = -1;
        }
    }

    /// Closed loop until `more()` says stop, then drain. Every completed
    /// and verified request goes to `w` (when given). False on a stall or
    /// a broken connection.
    bool run(const std::function<bool()>& more, Window* w) {
        std::size_t outstanding = 0;
        for (std::size_t c = 0; c < kKvConns; ++c) {
            if (more()) {
                if (!issue(c)) {
                    return false;
                }
                ++outstanding;
            }
        }
        std::array<epoll_event, kKvConns> evs{};
        while (outstanding > 0) {
            const int n = epoll_wait(epfd_, evs.data(), static_cast<int>(evs.size()),
                                     kKvStallMs);
            if (n < 0 && errno == EINTR) {
                continue;
            }
            if (n <= 0) {
                failed_ += outstanding;  // stalled: every request in flight is lost
                return false;
            }
            for (int i = 0; i < n; ++i) {
                const std::size_t c = evs[static_cast<std::size_t>(i)].data.u64;
                Conn& k = conns_[c];
                const ssize_t got = ::read(k.fd, k.rx.data() + k.got, k.expect_len - k.got);
                if (got < 0 && (errno == EAGAIN || errno == EINTR)) {
                    continue;
                }
                if (got <= 0) {
                    failed_ += outstanding;
                    return false;
                }
                k.got += static_cast<std::size_t>(got);
                if (k.got < k.expect_len) {
                    continue;
                }
                const std::uint64_t t = now_ns();
                if (std::memcmp(k.rx.data(), k.expect.data(), k.expect_len) != 0) {
                    ++failed_;
                } else if (w != nullptr) {
                    w->record(t - k.t_sent, t);
                }
                --outstanding;
                if (more()) {
                    if (!issue(c)) {
                        failed_ += outstanding;
                        return false;
                    }
                    ++outstanding;
                }
            }
        }
        return true;
    }

    [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
    [[nodiscard]] std::uint64_t failed() const { return failed_; }
    [[nodiscard]] const KvTable& shadow() const { return shadow_; }

  private:
    struct Conn {
        int fd = -1;
        std::uint64_t rng = 0;
        std::uint32_t seq = 0;
        std::uint64_t t_sent = 0;
        std::size_t expect_len = 0;
        std::size_t got = 0;
        std::array<std::uint8_t, sizeof(Header) + kKvGetReply> expect{};
        std::array<std::uint8_t, sizeof(Header) + kKvGetReply> rx{};
        std::array<std::uint8_t, sizeof(Header) + kKvValue> tx{};
    };

    /// Draw the next request of connection `c`, update the shadow, build
    /// the expected reply and send. 90% gets, 10% 1 KiB puts.
    bool issue(std::size_t c) {
        Conn& k = conns_[c];
        const std::uint64_t r = splitmix(k.rng);
        const bool put = r % 10 == 0;
        const auto key = static_cast<std::uint32_t>(c + kKvConns * ((r >> 8) % kKvKeysPerConn));
        Header h{put ? kPut : kGet, key, ++k.seq, put ? static_cast<std::uint32_t>(kKvValue) : 0};
        std::memcpy(k.tx.data(), &h, sizeof h);
        Header rep{0, key, k.seq, 0};
        std::uint64_t v = shadow_.version[key];
        if (put) {
            const std::uint8_t* src = bank_.data() + (r >> 24) % (kKvBank - kKvValue);
            std::memcpy(k.tx.data() + sizeof h, src, kKvValue);
            std::memcpy(shadow_.value(key), src, kKvValue);
            v = ++shadow_.version[key];
            rep.len = sizeof v;
        } else {
            std::memcpy(k.expect.data() + sizeof rep + sizeof v, shadow_.value(key),
                        kKvGetReply - sizeof v);
            rep.len = kKvGetReply;
        }
        std::memcpy(k.expect.data(), &rep, sizeof rep);
        std::memcpy(k.expect.data() + sizeof rep, &v, sizeof v);
        k.expect_len = sizeof rep + rep.len;
        k.got = 0;
        ++attempted_;
        k.t_sent = now_ns();
        return send_all(k.fd, k.tx.data(), sizeof h + h.len);
    }

    static bool send_all(int fd, const std::uint8_t* p, std::size_t n) {
        while (n > 0) {
            const ssize_t w = ::write(fd, p, n);
            if (w > 0) {
                p += w;
                n -= static_cast<std::size_t>(w);
            } else if (w < 0 && (errno == EAGAIN || errno == EINTR)) {
                sched_yield();
            } else {
                return false;
            }
        }
        return true;
    }

    KvTable shadow_;
    const std::vector<std::uint8_t>& bank_;
    std::array<Conn, kKvConns> conns_{};
    int epfd_ = -1;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

}  // namespace

Report run_rpc_kv(const Plan& plan, SpanLog& spans) {
    Report rep;
    // 2 gol streams + this client thread + the reactor poller.
    const unsigned budget = thread_budget();
    const std::size_t streams = budget >= 4 ? 2 : 1;
    rep.threads = static_cast<unsigned>(streams) + 2;
    rep.bind = "none (gol has no bind option)";
    if (rep.threads > budget) {
        std::fprintf(stderr, "rpc_kv needs %u threads, only %u CPUs\n", rep.threads, budget);
        rep.attempted = rep.failed = 1;
        return rep;
    }

    std::uint64_t s = plan.seed ^ 0x4B56'0003ull;
    KvTable init;
    for (std::uint8_t& b : init.bytes) {
        b = static_cast<std::uint8_t>(splitmix(s));
    }
    std::vector<std::uint8_t> bank(kKvBank);
    for (std::uint8_t& b : bank) {
        b = static_cast<std::uint8_t>(splitmix(s));
    }
    const std::uint64_t client_seed = splitmix(s);

    // Outlives every server: late recordings land here (see KvServer).
    auto pr = std::make_unique<KvProbes>();
    std::unique_ptr<KvServer> server;
    std::unique_ptr<KvClient> client;
    // Server up, client connected, warm-up; the batches, or -1 on a failure.
    const auto boot = [&] {
        server = std::make_unique<KvServer>(streams, init, *pr, spans);
        client = std::make_unique<KvClient>(client_seed, init, bank);
        const auto port = server->start();
        bool ok = port && client->connect(*port);
        if (port) {
            if (!ok) {
                client->close();
                server->close_listener();
            }
            server->wait_accepted();
        }
        const int batches = warm_until_steady([&] {
            int n = 0;
            ok = ok && client->run([&] { return n++ < kKvWarmBatch; }, nullptr);
        });
        return ok && client->failed() == 0 && server->errors() == 0 ? batches : -1;
    };
    for (int b = 0; b < plan.boots; ++b) {
        sample_setup(rep, boot);
    }
    bool ok = boot() > 0;
    Counters before, after;
    std::uint64_t traced_reqs = 0;
    if (ok && plan.untraced_s > 0) {
        Window w(plan.untraced_s, plan.chunks);
        ok = client->run([&] { return !w.done(); }, &w);
        rep.untraced = w.chunks();
        rep.untraced_ns_per_op = w.ns_per_op();
        rep.host_steal = w.host_steal();
    }
    if (ok && plan.traced_s > 0) {
        // Quiescent on both sides: every request answered.
        before = Counters::read(server->sched_stats());
        const std::uint64_t req0 = client->attempted();
        server->set_traced(true);
        Window w(plan.traced_s, plan.chunks);
        ok = client->run([&] { return !w.done(); }, &w);
        server->set_traced(false);
        after = Counters::read(server->sched_stats());
        traced_reqs = client->attempted() - req0;
        rep.traced_ns_per_op = w.ns_per_op();
    }
    client->close();
    server->stop();
    rep.attempted += client->attempted();
    rep.failed += client->failed() + server->errors();
    // End-of-run check: the server's table equals the client's shadow.
    ++rep.attempted;
    if (!ok || server->table().checksum() != client->shadow().checksum()) {
        ++rep.failed;
    }
    client.reset();
    server.reset();
    if (!ok) {
        return rep;
    }
    if (plan.traced_s > 0) {
        add_p50_p99(rep, "gol.service_us", pr->service, 1e-3, "us");
        rep.layers.push_back(
            {"gol.service_self_us_p50", pr->service_self.hist.quantile(0.5) * 1e-3, "us"});
        add_p50_p99(rep, "core.chan_send_wait_ns", pr->chan_send, 1.0, "ns");
        add_p50_p99(rep, "core.mutex_wait_ns", pr->mutex_wait, 1.0, "ns");
        rep.layers.push_back({"io.write_ns_p50", pr->write.hist.quantile(0.5), "ns"});
        const std::uint64_t wakes = after.reactor_wakes - before.reactor_wakes;
        rep.layers.push_back(
            {"io.polls_per_wake", ratio(after.reactor_polls - before.reactor_polls, wakes),
             "count/wake"});
        rep.layers.push_back({"io.wakes_per_req", ratio(wakes, traced_reqs), "count/req"});
    }
    return rep;
}

}  // namespace perfbench
