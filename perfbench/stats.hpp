// stats.hpp — the benchmark's measurement helpers, free of any runtime
// dependency so perfbench_selftest can check them on their own.
//
//   * tail_quantile / quantile_of: the percentile rule — report the median
//     and the highest percentile (at most the one asked for) that still has
//     at least ten samples beyond it;
//   * self_time_ns: a span's duration minus the part of it its child spans
//     cover (overlapping children are counted once);
//   * LogLinearHistogram: sharded, lock-free histogram with 1/64 relative
//     resolution, for the traced run's per-layer timings;
//   * Result / format_result: the one-line JSON result the benchmark prints
//     last.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Samples that must lie beyond a reported tail percentile.
inline constexpr std::size_t kTailSamples = 10;

/// The highest quantile <= `target` with at least kTailSamples of `n`
/// samples above it; 0.5 when there are too few samples for any tail.
[[nodiscard]] inline double tail_quantile(std::size_t n, double target) {
    if (n <= 2 * kTailSamples) {
        return 0.5;
    }
    const double q = static_cast<double>(n - kTailSamples) /
                     static_cast<double>(n);
    return std::min(target, q);
}

/// Nearest-rank quantile of `v` (reordered in place). Rank ceil(q*n), so
/// q = 1 - k/n leaves exactly k samples above the returned one.
template <typename T>
[[nodiscard]] double quantile_of(std::vector<T>& v, double q) {
    if (v.empty()) {
        return 0.0;
    }
    const auto n = v.size();
    auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
    rank = std::clamp<std::size_t>(rank, 1, n);
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                     v.end());
    return static_cast<double>(v[rank - 1]);
}

/// Median of a small set of per-chunk values (mean of the middle two for
/// an even count).
[[nodiscard]] inline double median(std::vector<double> v) {
    if (v.empty()) {
        return 0.0;
    }
    std::sort(v.begin(), v.end());
    const auto n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Closed-open interval [begin, end) in nanoseconds.
struct Interval {
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
};

/// Self time of `span`: its duration minus the union of its children's
/// intervals clipped to it. Children may overlap one another and may stick
/// out of the span; neither is counted twice or outside.
[[nodiscard]] inline std::uint64_t self_time_ns(Interval span,
                                                std::vector<Interval> children) {
    if (span.end <= span.begin) {
        return 0;
    }
    std::sort(children.begin(), children.end(),
              [](const Interval& a, const Interval& b) { return a.begin < b.begin; });
    std::uint64_t covered = 0;
    std::uint64_t cursor = span.begin;  // everything before cursor is accounted
    for (const Interval& c : children) {
        const std::uint64_t b = std::max(c.begin, cursor);
        const std::uint64_t e = std::min(c.end, span.end);
        if (e > b) {
            covered += e - b;
            cursor = e;
        }
    }
    return (span.end - span.begin) - covered;
}

/// Lock-free histogram over uint64 values: exact below 64, then 32
/// linear sub-buckets per power of two (relative error below 1/64).
/// Writers pick a shard (one per execution stream) so the hot buckets are
/// not shared between cores; snapshots merge the shards.
class LogLinearHistogram {
  public:
    static constexpr unsigned kSubBits = 5;
    static constexpr std::size_t kSub = std::size_t{1} << kSubBits;
    static constexpr std::size_t kBuckets = kSub + (64 - kSubBits) * kSub;
    static constexpr std::size_t kShards = 8;

    [[nodiscard]] static std::size_t bucket_of(std::uint64_t v) noexcept {
        if (v < kSub) {
            return static_cast<std::size_t>(v);
        }
        const unsigned e = static_cast<unsigned>(std::bit_width(v)) - 1;  // >= kSubBits
        const unsigned shift = e - kSubBits;
        return kSub * (e - kSubBits + 1) + static_cast<std::size_t>((v >> shift) - kSub);
    }

    /// Smallest value of bucket `b`, and how many values it spans.
    [[nodiscard]] static double bucket_lower(std::size_t b) noexcept {
        if (b < kSub) {
            return static_cast<double>(b);
        }
        return static_cast<double>(kSub + b % kSub) * bucket_width(b);
    }
    [[nodiscard]] static double bucket_width(std::size_t b) noexcept {
        return b < 2 * kSub ? 1.0 : std::ldexp(1.0, static_cast<int>(b / kSub - 1));
    }

    void record(std::uint64_t v, std::size_t shard) noexcept {
        shards_[shard % kShards].buckets[bucket_of(v)].fetch_add(
            1, std::memory_order_relaxed);
    }

    /// Merged per-bucket counts of every shard.
    [[nodiscard]] std::vector<std::uint64_t> counts() const {
        std::vector<std::uint64_t> out(kBuckets, 0);
        for (const auto& s : shards_) {
            for (std::size_t b = 0; b < kBuckets; ++b) {
                out[b] += s.buckets[b].load(std::memory_order_relaxed);
            }
        }
        return out;
    }

    [[nodiscard]] std::uint64_t count() const {
        std::uint64_t n = 0;
        for (std::uint64_t c : counts()) {
            n += c;
        }
        return n;
    }

    /// Nearest-rank quantile, placed inside its bucket by linear
    /// interpolation over the bucket's samples; 0 when empty.
    [[nodiscard]] double quantile(double q) const {
        const auto c = counts();
        std::uint64_t n = 0;
        for (std::uint64_t x : c) {
            n += x;
        }
        if (n == 0) {
            return 0.0;
        }
        auto rank = static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(n)));
        rank = std::clamp<std::uint64_t>(rank, 1, n);
        std::uint64_t seen = 0;
        for (std::size_t b = 0; b < kBuckets; ++b) {
            if (seen + c[b] >= rank) {
                const double frac = (static_cast<double>(rank - seen) - 0.5) /
                                    static_cast<double>(c[b]);
                return bucket_lower(b) + frac * bucket_width(b);
            }
            seen += c[b];
        }
        return bucket_lower(kBuckets - 1);
    }

    /// The percentile rule applied to this histogram's sample count.
    [[nodiscard]] double tail(double target) const {
        return quantile(tail_quantile(count(), target));
    }

  private:
    struct alignas(64) Shard {
        std::array<std::atomic<std::uint64_t>, kBuckets> buckets{};
    };
    std::array<Shard, kShards> shards_{};
};

/// One named metric of the result line.
struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// The benchmark's result: printed as the last line of standard output.
struct Result {
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
};

/// Shortest decimal text that reads back as exactly `v`.
[[nodiscard]] inline std::string format_number(double v) {
    if (!std::isfinite(v)) {
        return "null";
    }
    char buf[40];
    for (int digits = 15; digits <= 17; ++digits) {
        std::snprintf(buf, sizeof buf, "%.*g", digits, v);
        if (std::strtod(buf, nullptr) == v) {
            break;
        }
    }
    return buf;
}

/// JSON string literal for a metric name or unit (escapes quote, backslash
/// and control characters).
[[nodiscard]] inline std::string json_string(const std::string& s) {
    std::string out = "\"";
    for (const char ch : s) {
        const auto c = static_cast<unsigned char>(ch);
        if (c == '"' || c == '\\') {
            out += '\\';
            out += ch;
        } else if (c < 0x20) {
            char esc[8];
            std::snprintf(esc, sizeof esc, "\\u%04x", c);
            out += esc;
        } else {
            out += ch;
        }
    }
    return out + "\"";
}

/// `{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name:
/// {"value": v, "unit": u}, ...}}` on one line.
[[nodiscard]] inline std::string format_result(const Result& r) {
    std::string out = "{\"correct\": ";
    out += r.correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(r.attempted);
    out += ", \"failed\": " + std::to_string(r.failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < r.metrics.size(); ++i) {
        const Metric& m = r.metrics[i];
        if (i != 0) {
            out += ", ";
        }
        out += json_string(m.name) + ": {\"value\": " + format_number(m.value) +
               ", \"unit\": " + json_string(m.unit) + "}";
    }
    out += "}}";
    return out;
}

}  // namespace perfbench
