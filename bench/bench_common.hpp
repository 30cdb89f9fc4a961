// bench_common.hpp — shared plumbing for the per-figure bench binaries.
#pragma once

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "benchsupport/harness.hpp"
#include "patterns/patterns.hpp"

namespace lwtbench {

using lwt::benchsupport::env_flag;
using lwt::benchsupport::env_size;
using lwt::benchsupport::Series;
using lwt::benchsupport::Summary;
using lwt::benchsupport::SweepConfig;
using lwt::patterns::PatternRunner;
using lwt::patterns::Variant;

/// Build one harness Series per library configuration. `make` receives the
/// booted runner and returns the per-repetition body; the runner stays
/// alive for the series point's lifetime (boot excluded from timing).
inline std::vector<Series> variant_series(
    const std::function<std::function<void()>(PatternRunner&)>& make) {
    std::vector<Series> out;
    for (Variant variant : lwt::patterns::all_variants()) {
        out.push_back(Series{
            std::string(lwt::patterns::variant_name(variant)),
            [variant, make](std::size_t threads) -> std::function<void()> {
                std::shared_ptr<PatternRunner> runner =
                    lwt::patterns::make_runner(variant, threads);
                auto body = make(*runner);
                return [runner, body] { body(); };
            }});
    }
    return out;
}

/// True when the bench was invoked with `--bulk` (or LWTBENCH_BULK=1):
/// route creation/join through the backends' batched fast path instead of
/// the per-unit calls, so the two can be compared on the same binary.
inline bool bulk_mode(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--bulk") {
            return true;
        }
    }
    return env_flag("LWTBENCH_BULK");
}

/// True when the bench was invoked with `--json` (or LWTBENCH_JSON=1):
/// in addition to the human-readable figure block, write the sweep as
/// BENCH_<figure_id>.json in the working directory (machine-readable; the
/// schema is documented at benchsupport::write_figure_json).
inline bool json_mode(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--json") {
            return true;
        }
    }
    return env_flag("LWTBENCH_JSON");
}

/// run_and_print plus the `--json` dump: the standard epilogue of every
/// fig*_ main. `figure_id` names the output file (BENCH_<figure_id>.json).
inline void run_and_report(const std::string& figure_id,
                           const std::string& title, const std::string& unit,
                           const std::vector<Series>& series, int argc,
                           char** argv) {
    const SweepConfig config = SweepConfig::from_env();
    const auto grid = lwt::benchsupport::run_sweep(config, series);
    lwt::benchsupport::print_figure(title, unit, config, series, grid);
    if (json_mode(argc, argv)) {
        std::vector<std::string> names;
        names.reserve(series.size());
        for (const Series& s : series) {
            names.push_back(s.name);
        }
        const std::string path = "BENCH_" + figure_id + ".json";
        if (lwt::benchsupport::write_figure_json(path, figure_id, title, unit,
                                                 config, names, grid)) {
            std::fprintf(stderr, "[lwtbench] wrote %s\n", path.c_str());
        } else {
            std::fprintf(stderr, "[lwtbench] failed to write %s\n",
                         path.c_str());
        }
    }
}

/// Figures 2/3 need phase-separated timing; this sweeps every variant and
/// prints the chosen phase (0 = create, 1 = join). With `bulk`, timing
/// goes through create_join_times_bulk (one batched submission + one
/// aggregate join) instead of the per-unit path. A non-empty `figure_id`
/// plus argc/argv enables the `--json` dump as in run_and_report.
inline void run_create_join_figure(const std::string& title, int phase,
                                   bool bulk = false,
                                   const std::string& figure_id = {},
                                   int argc = 0, char** argv = nullptr) {
    const SweepConfig config = SweepConfig::from_env();
    // LWTBENCH_UNITS: units per thread (default 1, the paper's figure).
    // Raised to study batching, where a `threads`-unit batch is too small
    // for the bulk path's one-notify/one-burst submission to matter.
    const std::size_t units = env_size("LWTBENCH_UNITS", 1);
    std::printf("# %s%s\n", title.c_str(), bulk ? " [bulk]" : "");
    std::printf("# reps=%zu warmup=%zu units_per_thread=%zu unit=ms bind=%s\n",
                config.reps, config.warmup, units,
                lwt::benchsupport::bind_policy_label());
    std::printf("threads");
    for (Variant v : lwt::patterns::all_variants()) {
        std::printf(",%s", std::string(lwt::patterns::variant_name(v)).c_str());
    }
    std::printf("\n");

    // grid[variant][thread] of the chosen phase's Summary.
    std::vector<std::vector<Summary>> grid;
    for (Variant variant : lwt::patterns::all_variants()) {
        std::vector<Summary> row;
        for (std::size_t threads : config.thread_counts) {
            auto runner = lwt::patterns::make_runner(variant, threads);
            runner->set_units_per_thread(units);
            const auto time_once = [&]() {
                return bulk ? runner->create_join_times_bulk([] {})
                            : runner->create_join_times([] {});
            };
            for (std::size_t w = 0; w < config.warmup; ++w) {
                (void)time_once();
            }
            std::vector<double> samples;
            samples.reserve(config.reps);
            for (std::size_t r = 0; r < config.reps; ++r) {
                const auto [create_ms, join_ms] = time_once();
                samples.push_back(phase == 0 ? create_ms : join_ms);
            }
            row.push_back(Summary::of(samples));
        }
        grid.push_back(std::move(row));
    }
    for (std::size_t t = 0; t < config.thread_counts.size(); ++t) {
        std::printf("%zu", config.thread_counts[t]);
        for (const auto& row : grid) {
            std::printf(",%.6f", row[t].mean);
        }
        std::printf("\n");
    }
    std::printf("# max RSD%% per series:");
    const auto& variants = lwt::patterns::all_variants();
    for (std::size_t s = 0; s < grid.size(); ++s) {
        double worst = 0.0;
        for (const Summary& sum : grid[s]) {
            worst = std::max(worst, sum.rsd_percent);
        }
        std::printf(" %s=%.1f",
                    std::string(lwt::patterns::variant_name(variants[s])).c_str(),
                    worst);
    }
    std::printf("\n\n");

    if (!figure_id.empty() && json_mode(argc, argv)) {
        std::vector<std::string> names;
        names.reserve(variants.size());
        for (Variant v : variants) {
            names.push_back(std::string(lwt::patterns::variant_name(v)));
        }
        const std::string path = "BENCH_" + figure_id + ".json";
        if (lwt::benchsupport::write_figure_json(path, figure_id, title, "ms",
                                                 config, names, grid)) {
            std::fprintf(stderr, "[lwtbench] wrote %s\n", path.c_str());
        } else {
            std::fprintf(stderr, "[lwtbench] failed to write %s\n",
                         path.c_str());
        }
    }
}

}  // namespace lwtbench
