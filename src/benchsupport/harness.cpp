#include "benchsupport/harness.hpp"

#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <string_view>

#include "arch/cpu.hpp"
#include "arch/settings.hpp"
#include "arch/topology.hpp"
#include "core/metrics.hpp"
#include "core/sched_stats.hpp"

namespace lwt::benchsupport {

namespace {

/// `name` read with `parse`, else `fallback`: unset, or malformed with one
/// warning per name and value.
template <typename T, typename Parse>
T env_knob(const char* name, T fallback, Parse parse, const char* expected) {
    static std::mutex mutex;
    static std::set<std::string> warned;
    const char* raw = std::getenv(name);
    if (raw == nullptr || *raw == '\0') {
        return fallback;
    }
    if (auto v = parse(std::string_view(raw))) {
        return *v;
    }
    std::lock_guard guard(mutex);
    if (warned.insert(std::string(name) + "=" + raw).second) {
        std::fprintf(stderr,
                     "[lwtbench] ignoring malformed %s=\"%s\" (expected %s)\n",
                     name, raw, expected);
    }
    return fallback;
}

/// A whole-string decimal of at least `min`.
std::optional<std::size_t> parse_size(std::string_view v, std::size_t min) {
    const std::optional<std::uint64_t> n = arch::parse_unsigned(v);
    return n && *n >= min ? std::optional<std::size_t>(*n) : std::nullopt;
}

/// "1,2,4": a comma list of whole numbers >= 1.
std::optional<std::vector<std::size_t>> parse_list(std::string_view v) {
    std::vector<std::size_t> out;
    std::istringstream in{std::string(v)};
    for (std::string item; std::getline(in, item, ',');) {
        const auto n = parse_size(item, 1);
        if (!n) {
            return std::nullopt;
        }
        out.push_back(*n);
    }
    return out;
}

}  // namespace

std::size_t env_size(const char* name, std::size_t fallback,
                     std::size_t min) {
    const auto parse = [min](std::string_view v) { return parse_size(v, min); };
    return env_knob(name, fallback, parse,
                    min == 0 ? "a whole number" : "a whole number >= 1");
}

bool env_flag(const char* name, bool fallback) {
    return env_knob(name, fallback, arch::parse_bool,
                    "1/true/on/yes or 0/false/off/no");
}

SweepConfig SweepConfig::from_env() {
    SweepConfig cfg;
    cfg.thread_counts = env_knob("LWTBENCH_THREADS", cfg.thread_counts,
                                 parse_list, "a comma list like 1,2,4");
    if (cfg.thread_counts.empty()) {
        // Default: powers of two up to 2x the hardware threads (the paper
        // sweeps past the core count to show oversubscription effects).
        const std::size_t hw = arch::hardware_threads();
        for (std::size_t t = 1; t <= hw * 2; t *= 2) {
            cfg.thread_counts.push_back(t);
        }
    }
    cfg.reps = env_size("LWTBENCH_REPS", cfg.reps);
    cfg.warmup = env_size("LWTBENCH_WARMUP", cfg.warmup, 0);
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
