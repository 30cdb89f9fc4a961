// lwt_perfbench — the repository benchmark program (see README.md).
//
//   lwt_perfbench --workload fork_join|task_tree|rpc_kv --seed N
//                 --seconds S --trace 0|1 [--out-dir DIR] [--commit ID]
//
// --trace 0: take set-up samples of the named workload, each a boot plus
// warm-up in a fresh child process (their median is setup_s), then boot it
// here and run it closed-loop for S seconds with no spans and report the
// end-to-end metrics. --trace 1: a separate traced run reporting the
// per-layer metrics; see README.md for how it splits S.
//
// The last line of standard output is the result object; the line before
// it records the run conditions. Both, with the per-chunk series, also go
// to DIR/<workload>-seed<N>-trace<T>.result.json, and a traced run writes
// each workload's sampled spans beside it as .<workload>.spans.json. Exit
// code 0 only when every result checked out.
#include <sched.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <utility>
#include <vector>
#include <string>

#include "stats.hpp"
#include "workloads.hpp"

extern char** environ;

namespace {

using perfbench::Chunk;
using perfbench::Metric;
using perfbench::Plan;
using perfbench::Report;

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

constexpr int kSetupBoots = 15;

/// Windows are cut into chunks of about one second, at least ten.
int chunks_for(double seconds) {
    return std::max(10, static_cast<int>(seconds + 0.5));
}

using Runner = Report (*)(const Plan&, perfbench::SpanLog&);

/// The workloads in the order a traced run visits them. rpc_kv comes last:
/// once the process-wide reactor is armed, idle streams of every later
/// runtime poll it, which changes the idle ladder the others measure.
const std::vector<std::pair<std::string, Runner>>& workloads() {
    static const std::vector<std::pair<std::string, Runner>> w = {
        {"fork_join", &perfbench::run_fork_join},
        {"task_tree", &perfbench::run_task_tree},
        {"rpc_kv", &perfbench::run_rpc_kv},
    };
    return w;
}

Runner find_workload(const std::string& name) {
    for (const auto& [n, run] : workloads()) {
        if (n == name) {
            return run;
        }
    }
    return nullptr;
}

[[noreturn]] void usage(const char* why) {
    std::fprintf(stderr,
                 "lwt_perfbench: %s\nusage: lwt_perfbench --workload fork_join|task_tree|rpc_kv"
                 " --seed N --seconds S --trace 0|1 [--out-dir DIR] [--commit ID]\n",
                 why);
    std::exit(2);
}

/// A runtime knob in the environment would change the program being
/// measured (LWT_JOIN=poll, LWT_METRICS, LWT_BIND, ...): refuse to run.
bool stray_runtime_env() {
    bool stray = false;
    for (char** e = environ; *e != nullptr; ++e) {
        if (std::strncmp(*e, "LWT_", 4) == 0 || std::strncmp(*e, "GLT_", 4) == 0) {
            std::fprintf(stderr, "lwt_perfbench: refusing to run with %s set\n", *e);
            stray = true;
        }
    }
    return stray;
}

std::string json_array(const std::vector<double>& v) {
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
        out += (i == 0 ? "" : ", ") + perfbench::format_number(v[i]);
    }
    return out + "]";
}

/// End-to-end figures of one window: medians over its chunks. The
/// per-chunk series go to `chunks` (a JSON object) for the results file.
std::vector<Metric> end_to_end(const Report& rep, std::uint64_t* samples, double* tail_q,
                               std::string* chunks) {
    std::vector<double> tput, p50, p99, cpu, steal;
    *samples = 0;
    *tail_q = 0.99;
    for (const Chunk& c : rep.untraced) {
        if (c.ops == 0 || c.wall_s <= 0) {
            continue;
        }
        *tail_q = std::min(*tail_q, c.tail_q);
        *samples += c.ops;
        tput.push_back(static_cast<double>(c.ops) / c.wall_s);
        cpu.push_back(c.cpu_s * 1e6 / static_cast<double>(c.ops));
        p50.push_back(c.p50_ns * 1e-3);
        p99.push_back(c.tail_ns * 1e-3);
        steal.push_back(c.host_steal * 100);
    }
    *chunks = "{\"throughput_per_s\": " + json_array(tput) +
              ", \"latency_p50_us\": " + json_array(p50) +
              ", \"latency_p99_us\": " + json_array(p99) +
              ", \"cpu_us_per_op\": " + json_array(cpu) +
              ", \"host_steal_pct\": " + json_array(steal) +
              ", \"setup_s\": " + json_array(rep.setup_s) +
              ", \"setup_warm_batches\": " + json_array(rep.setup_batches) + "}";
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return {
        {"setup_s", perfbench::median(rep.setup_s), "s"},
        {"throughput_per_s", perfbench::median(tput), "op/s"},
        {"latency_p50_us", perfbench::median(p50), "us"},
        {"latency_p99_us", perfbench::median(p99), "us"},
        {"cpu_us_per_op", perfbench::median(cpu), "us"},
        {"peak_rss_mib", static_cast<double>(ru.ru_maxrss) / 1024.0, "MiB"},
    };
}

void merge(Report& into, const Report& r) {
    into.attempted += r.attempted;
    into.failed += r.failed;
    into.layers.insert(into.layers.end(), r.layers.begin(), r.layers.end());
}

}  // namespace

int main(int argc, char** argv) {
    std::string workload, out_dir = ".", commit = "unknown";
    std::uint64_t seed = 0;
    double seconds = 0;
    int trace = -1;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i];
        const char* v = argv[i + 1];
        if (k == "--workload") {
            workload = v;
        } else if (k == "--seed") {
            seed = std::strtoull(v, nullptr, 10);
        } else if (k == "--seconds") {
            seconds = std::strtod(v, nullptr);
        } else if (k == "--trace") {
            trace = std::atoi(v);
        } else if (k == "--out-dir") {
            out_dir = v;
        } else if (k == "--commit") {
            commit = v;
        } else {
            usage(("unknown option " + k).c_str());
        }
    }
    if (argc % 2 != 1) {
        usage("options take one value each");
    }
    if (find_workload(workload) == nullptr) {
        usage("unknown or missing --workload");
    }
    if (!(seconds > 0) || seconds > 600 || (trace != 0 && trace != 1)) {
        usage("--seconds must be in (0, 600] and --trace 0 or 1");
    }
    if (!kOptimized || kSanitized) {
        std::fprintf(stderr, "lwt_perfbench: refusing an unoptimised or sanitizer build\n");
        return 2;
    }
    if (stray_runtime_env()) {
        return 2;
    }

    // One span log per workload, so a traced run's file for each keeps the
    // last spans of that workload rather than of whichever ran last.
    std::vector<std::pair<std::string, std::unique_ptr<perfbench::SpanLog>>> span_logs;
    Report rep;
    std::vector<Metric> metrics;
    const unsigned nproc = perfbench::thread_budget();
    // abt and mth pin the calling thread as their stream 0 and leave it
    // pinned; threads a later runtime starts would inherit that one CPU.
    cpu_set_t initial_cpus;
    CPU_ZERO(&initial_cpus);
    sched_getaffinity(0, sizeof initial_cpus, &initial_cpus);
    const auto run = [&](const std::string& name, Runner runner, const Plan& plan) {
        span_logs.emplace_back(name, std::make_unique<perfbench::SpanLog>());
        Report r = runner(plan, *span_logs.back().second);
        sched_setaffinity(0, sizeof initial_cpus, &initial_cpus);
        return r;
    };
    if (trace == 0) {
        Plan plan;
        plan.seed = seed;
        plan.boots = kSetupBoots;
        plan.untraced_s = seconds;
        plan.chunks = chunks_for(seconds);
        rep = run(workload, find_workload(workload), plan);
    } else {
        // The named workload: an untraced then a traced window of S/4 each,
        // whose per-op times give the tracing overhead. Every other
        // workload: a traced window of S/4, so each traced result carries
        // every per-layer metric, measured on the workload that loads it.
        std::vector<Report> others;
        for (const auto& [name, runner] : workloads()) {
            Plan plan;
            plan.seed = seed;
            plan.traced_s = seconds / 4;
            plan.chunks = chunks_for(seconds / 4);
            if (name == workload) {
                plan.untraced_s = seconds / 4;
                rep = run(name, runner, plan);
            } else {
                others.push_back(run(name, runner, plan));
            }
        }
        for (const Report& r : others) {
            merge(rep, r);
        }
    }
    const bool correct = rep.failed == 0 && rep.attempted > 0;
    const double steal_pct = rep.host_steal * 100;

    std::uint64_t samples = 0;
    double tail_q = 0;
    std::string chunks = "{}";
    if (trace == 0) {
        metrics = end_to_end(rep, &samples, &tail_q, &chunks);
    } else {
        metrics = rep.layers;
        const double overhead = rep.untraced_ns_per_op > 0
                                    ? rep.traced_ns_per_op / rep.untraced_ns_per_op
                                    : 0.0;
        metrics.push_back({"bench.trace_overhead_ratio", overhead, "ratio"});
    }

    perfbench::Result result;
    result.correct = correct;
    result.attempted = rep.attempted;
    result.failed = rep.failed;
    result.metrics = metrics;

    const double error_ratio =
        rep.attempted == 0 ? 1.0
                           : static_cast<double>(rep.failed) / static_cast<double>(rep.attempted);
    std::string conditions = "{\"conditions\": {\"workload\": " + perfbench::json_string(workload) +
                             ", \"seed\": " + std::to_string(seed) +
                             ", \"seconds\": " + perfbench::format_number(seconds) +
                             ", \"trace\": " + std::to_string(trace) +
                             ", \"nproc\": " + std::to_string(nproc) +
                             ", \"threads\": " + std::to_string(rep.threads) +
                             ", \"bind\": " + perfbench::json_string(rep.bind) +
                             ", \"build_type\": " + perfbench::json_string(PERFBENCH_BUILD_TYPE) +
                             ", \"commit\": " + perfbench::json_string(commit) +
                             ", \"error_ratio\": " + perfbench::format_number(error_ratio) +
                             ", \"host_steal_pct\": " +
                             (steal_pct >= 0 ? perfbench::format_number(steal_pct) : "null");
    if (trace == 0) {
        conditions += ", \"latency_samples\": " + std::to_string(samples) +
                      ", \"tail_percentile\": " + perfbench::format_number(tail_q * 100) +
                      ", \"setup_boots\": " + std::to_string(rep.setup_s.size()) +
                      ", \"setup_warm_batches\": " +
                      perfbench::format_number(perfbench::median(rep.setup_batches));
    }
    conditions += "}}";
    const std::string line = perfbench::format_result(result);

    mkdir(out_dir.c_str(), 0755);
    const std::string stem = out_dir + "/" + workload + "-seed" + std::to_string(seed) +
                             "-trace" + std::to_string(trace);
    std::ofstream(stem + ".result.json")
        << conditions << "\n{\"chunks\": " << chunks << "}\n" << line << "\n";
    for (const auto& [name, log] : span_logs) {
        const std::string path = stem + "." + name + ".spans.json";
        if (trace == 1 && !log->write_chrome_json(path)) {
            std::fprintf(stderr, "lwt_perfbench: could not write %s\n", path.c_str());
        }
    }
    std::printf("%s\n%s\n", conditions.c_str(), line.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
