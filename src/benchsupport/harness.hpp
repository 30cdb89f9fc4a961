// harness.hpp — thread sweeps and paper-style series printing.
//
// Each fig*_ bench binary sweeps a thread count (the x-axis of every paper
// figure) over a set of library configurations (the series) and prints one
// gnuplot/CSV-friendly block per figure. Environment knobs:
//   LWTBENCH_THREADS  comma list, e.g. "1,2,4,8"   (default scales to host)
//   LWTBENCH_REPS     repetitions per point        (default 20; paper: 500)
//   LWTBENCH_WARMUP   unmeasured runs per point    (default 2)
// Every LWTBENCH_* knob goes through env_size / env_flag (the
// arch::Settings grammar: "3x" is malformed, warns once, keeps the default).
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "benchsupport/stats.hpp"

namespace lwt::benchsupport {

/// Knob `name` as a whole-string decimal >= `min` / a boolean, else
/// `fallback` (unset, or malformed with a one-time warning).
[[nodiscard]] std::size_t env_size(const char* name, std::size_t fallback,
                                   std::size_t min = 1);
[[nodiscard]] bool env_flag(const char* name, bool fallback = false);

/// Sweep configuration resolved from the environment.
struct SweepConfig {
    std::vector<std::size_t> thread_counts;
    std::size_t reps = 20;
    std::size_t warmup = 2;

    static SweepConfig from_env();
};

/// One series in a figure: a named library configuration measured at each
/// thread count. The callback runs the benchmark body once for the given
/// thread count and returns nothing; timing wraps it.
struct Series {
    std::string name;  // e.g. "Argobots Tasklet (private pools)"
    /// Factory invoked once per thread count; returns the per-repetition
    /// body. Setup (library boot) happens in the factory so the measured
    /// region matches the paper (which excludes init/finalize).
    std::function<std::function<void()>(std::size_t threads)> make_body;
};

/// Result grid: result[series][thread_index].
using ResultGrid = std::vector<std::vector<Summary>>;

/// The stream-binding policy a figure's runtimes boot with: LWT_BIND
/// (arch::Settings) over the figure runners' Configs, which leave streams
/// unpinned. Printed in every figure header and JSON dump, so each number
/// can be traced to its thread placement.
[[nodiscard]] const char* bind_policy_label();

/// Run a full figure sweep.
ResultGrid run_sweep(const SweepConfig& config,
                     const std::vector<Series>& series);

/// Print the figure in the layout used throughout EXPERIMENTS.md:
/// a header block (reps, warmup, unit, bind policy), then one row per
/// thread count with one column per series (mean, in `unit`), then
/// per-series RSD maxima.
void print_figure(const std::string& title, const std::string& unit,
                  const SweepConfig& config, const std::vector<Series>& series,
                  const ResultGrid& grid);

/// Convenience: run + print.
void run_and_print(const std::string& title, const std::string& unit,
                   const std::vector<Series>& series);

/// Write one figure's sweep as machine-readable JSON (the `--json` bench
/// mode; see bench/bench_common.hpp). Layout:
///   {"figure": id, "title": ..., "unit": ..., "reps": N, "warmup": N,
///    "bind": "none" | "compact" | "scatter", "threads": [...],
///    "series": [{"name": ..., "mean": [...], "min": [...], "max": [...],
///                "rsd_percent": [...]}],
///    "steal_tiers": {"sibling": {"attempts": N, "hits": N},
///                    "package": {...}, "remote": {...}}}
/// with one array entry per thread count, aligned with "threads".
/// "steal_tiers" is the process-wide tiered-stealing telemetry accumulated
/// over the whole sweep (all zero on a flat topology).
/// Returns false on IO failure.
bool write_figure_json(const std::string& path, const std::string& figure_id,
                       const std::string& title, const std::string& unit,
                       const SweepConfig& config,
                       const std::vector<std::string>& series_names,
                       const ResultGrid& grid);

}  // namespace lwt::benchsupport
