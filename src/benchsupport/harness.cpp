#include "benchsupport/harness.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "arch/cpu.hpp"
#include "arch/topology.hpp"
#include "core/metrics.hpp"
#include "core/sched_stats.hpp"

namespace lwt::benchsupport {

SweepConfig SweepConfig::from_env() {
    SweepConfig cfg;
    if (const char* env = std::getenv("LWTBENCH_THREADS")) {
        const char* p = env;
        while (*p != '\0') {
            char* end = nullptr;
            const long v = std::strtol(p, &end, 10);
            if (end == p) {
                break;
            }
            if (v > 0) {
                cfg.thread_counts.push_back(static_cast<std::size_t>(v));
            }
            p = *end == ',' ? end + 1 : end;
        }
    }
    if (cfg.thread_counts.empty()) {
        // Default: powers of two up to 2x the hardware threads (the paper
        // sweeps past the core count to show oversubscription effects).
        const std::size_t hw = arch::hardware_threads();
        for (std::size_t t = 1; t <= hw * 2; t *= 2) {
            cfg.thread_counts.push_back(t);
        }
    }
    if (const char* env = std::getenv("LWTBENCH_REPS")) {
        const long v = std::atol(env);
        if (v > 0) {
            cfg.reps = static_cast<std::size_t>(v);
        }
    }
    if (const char* env = std::getenv("LWTBENCH_WARMUP")) {
        const long v = std::atol(env);
        if (v >= 0) {
            cfg.warmup = static_cast<std::size_t>(v);
        }
    }
    return cfg;
}

const char* bind_policy_label() {
    return arch::bind_policy_name(
        arch::resolve_bind_policy(arch::BindPolicy::kNone));
}

ResultGrid run_sweep(const SweepConfig& config,
                     const std::vector<Series>& series) {
    ResultGrid grid(series.size());
    for (std::size_t s = 0; s < series.size(); ++s) {
        grid[s].reserve(config.thread_counts.size());
        for (const std::size_t threads : config.thread_counts) {
            auto body = series[s].make_body(threads);
            grid[s].push_back(measure_ms(config.reps, config.warmup, body));
        }
    }
    return grid;
}

void print_figure(const std::string& title, const std::string& unit,
                  const SweepConfig& config, const std::vector<Series>& series,
                  const ResultGrid& grid) {
    std::printf("# %s\n", title.c_str());
    std::printf("# reps=%zu warmup=%zu unit=%s bind=%s\n", config.reps,
                config.warmup, unit.c_str(), bind_policy_label());
    std::printf("threads");
    for (const Series& s : series) {
        std::printf(",%s", s.name.c_str());
    }
    std::printf("\n");
    for (std::size_t t = 0; t < config.thread_counts.size(); ++t) {
        std::printf("%zu", config.thread_counts[t]);
        for (std::size_t s = 0; s < series.size(); ++s) {
            std::printf(",%.6f", grid[s][t].mean);
        }
        std::printf("\n");
    }
    std::printf("# max RSD%% per series:");
    for (std::size_t s = 0; s < series.size(); ++s) {
        double worst = 0.0;
        for (const Summary& sum : grid[s]) {
            worst = std::max(worst, sum.rsd_percent);
        }
        std::printf(" %s=%.1f", series[s].name.c_str(), worst);
    }
    std::printf("\n\n");
    std::fflush(stdout);
}

void run_and_print(const std::string& title, const std::string& unit,
                   const std::vector<Series>& series) {
    const SweepConfig config = SweepConfig::from_env();
    const ResultGrid grid = run_sweep(config, series);
    print_figure(title, unit, config, series, grid);
}

namespace {

// Minimal JSON string escaping (quotes, backslashes, control chars).
std::string json_escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x", c);
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    return out;
}

void write_metric_array(std::FILE* f, const char* key,
                        const std::vector<Summary>& row,
                        double (*get)(const Summary&), bool trailing_comma) {
    std::fprintf(f, "      \"%s\": [", key);
    for (std::size_t t = 0; t < row.size(); ++t) {
        std::fprintf(f, "%s%.6f", t == 0 ? "" : ", ", get(row[t]));
    }
    std::fprintf(f, "]%s\n", trailing_comma ? "," : "");
}

}  // namespace

bool write_figure_json(const std::string& path, const std::string& figure_id,
                       const std::string& title, const std::string& unit,
                       const SweepConfig& config,
                       const std::vector<std::string>& series_names,
                       const ResultGrid& grid) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        return false;
    }
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"figure\": \"%s\",\n", json_escape(figure_id).c_str());
    std::fprintf(f, "  \"title\": \"%s\",\n", json_escape(title).c_str());
    std::fprintf(f, "  \"unit\": \"%s\",\n", json_escape(unit).c_str());
    std::fprintf(f, "  \"reps\": %zu,\n", config.reps);
    std::fprintf(f, "  \"warmup\": %zu,\n", config.warmup);
    std::fprintf(f, "  \"bind\": \"%s\",\n", bind_policy_label());
    std::fprintf(f, "  \"threads\": [");
    for (std::size_t t = 0; t < config.thread_counts.size(); ++t) {
        std::fprintf(f, "%s%zu", t == 0 ? "" : ", ", config.thread_counts[t]);
    }
    std::fprintf(f, "],\n");
    std::fprintf(f, "  \"series\": [\n");
    for (std::size_t s = 0; s < grid.size(); ++s) {
        const std::string name =
            s < series_names.size() ? series_names[s] : "series" + std::to_string(s);
        std::fprintf(f, "    {\n      \"name\": \"%s\",\n",
                     json_escape(name).c_str());
        write_metric_array(f, "mean", grid[s],
                           [](const Summary& x) { return x.mean; }, true);
        write_metric_array(f, "min", grid[s],
                           [](const Summary& x) { return x.min; }, true);
        write_metric_array(f, "max", grid[s],
                           [](const Summary& x) { return x.max; }, true);
        write_metric_array(f, "rsd_percent", grid[s],
                           [](const Summary& x) { return x.rsd_percent; },
                           false);
        std::fprintf(f, "    }%s\n", s + 1 < grid.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    // Tiered-stealing telemetry accumulated over the whole sweep: every
    // execution stream folds its per-tier steal counters into the metrics
    // registry when it is destroyed (core::accumulate_sched_counters), so
    // by the time the figure is written the totals cover every runner the
    // sweep booted. All-zero on a flat (single-domain) topology is normal;
    // set LWT_TOPOLOGY to exercise the package/remote tiers.
    std::fprintf(f, "  \"steal_tiers\": {\n");
    auto& reg = core::MetricsRegistry::instance();
    for (std::size_t t = 0; t < core::kStealTiers; ++t) {
        const std::string tier = core::steal_tier_name(t);
        const std::uint64_t attempts =
            reg.counter("sched.steal.tier." + tier + ".attempts").value();
        const std::uint64_t hits =
            reg.counter("sched.steal.tier." + tier + ".hits").value();
        std::fprintf(f, "    \"%s\": {\"attempts\": %llu, \"hits\": %llu}%s\n",
                     tier.c_str(),
                     static_cast<unsigned long long>(attempts),
                     static_cast<unsigned long long>(hits),
                     t + 1 < core::kStealTiers ? "," : "");
    }
    std::fprintf(f, "  }\n}\n");
    const bool ok = std::ferror(f) == 0;
    std::fclose(f);
    return ok;
}

}  // namespace lwt::benchsupport
