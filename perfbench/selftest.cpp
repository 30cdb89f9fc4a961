// perfbench_selftest — unit tests of the benchmark's own helpers
// (stats.hpp): the percentile rule, span self time, the histogram and the
// result line. Exit code 0 when every check passes.
//
//   perfbench_selftest          run the checks
//   perfbench_selftest --emit   print a sample result line (perfbench/test_perfbench.py
//                               parses it back: the round trip of the output)
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <numeric>
#include <vector>

#include "stats.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what, int line) {
    if (!ok) {
        std::fprintf(stderr, "FAIL line %d: %s\n", line, what);
        ++failures;
    }
}
#define CHECK(x) check((x), #x, __LINE__)

bool near(double a, double b, double rel) {
    return std::abs(a - b) <= rel * std::abs(b);
}

void test_tail_quantile() {
    // 1000 samples: p99 leaves exactly 10 beyond it, so p99 stands.
    CHECK(perfbench::tail_quantile(1000, 0.99) == 0.99);
    CHECK(perfbench::tail_quantile(100000, 0.99) == 0.99);
    // 500 samples: p99 would leave 5; fall back to the 98th percentile.
    CHECK(perfbench::tail_quantile(500, 0.99) == 0.98);
    CHECK(perfbench::tail_quantile(200, 0.99) == 0.95);
    // Too few for any tail: the median.
    CHECK(perfbench::tail_quantile(20, 0.99) == 0.5);
    CHECK(perfbench::tail_quantile(0, 0.99) == 0.5);

    // The returned quantile really has >= 10 samples beyond it.
    for (std::size_t n : {21u, 57u, 200u, 999u, 1000u, 1001u, 4321u}) {
        std::vector<int> v(n);
        std::iota(v.begin(), v.end(), 0);
        const double q = perfbench::tail_quantile(n, 0.99);
        const double x = perfbench::quantile_of(v, q);
        std::size_t beyond = 0;
        for (std::size_t i = 0; i < n; ++i) {
            beyond += static_cast<double>(i) > x;
        }
        CHECK(beyond >= perfbench::kTailSamples);
    }
}

void test_quantile_of() {
    std::vector<int> v = {5, 1, 4, 2, 3};
    CHECK(perfbench::quantile_of(v, 0.5) == 3);
    CHECK(perfbench::quantile_of(v, 0.0) == 1);
    CHECK(perfbench::quantile_of(v, 1.0) == 5);
    std::vector<int> empty;
    CHECK(perfbench::quantile_of(empty, 0.5) == 0);
    CHECK(perfbench::median({3.0, 1.0, 2.0}) == 2.0);
    CHECK(perfbench::median({4.0, 1.0, 2.0, 3.0}) == 2.5);
}

void test_self_time() {
    // No children: the whole span.
    CHECK(perfbench::self_time_ns({100, 200}, {}) == 100);
    // Disjoint children.
    CHECK(perfbench::self_time_ns({0, 100}, {{10, 20}, {50, 70}}) == 70);
    // Overlapping children are covered once.
    CHECK(perfbench::self_time_ns({0, 100}, {{10, 40}, {30, 60}}) == 50);
    // Nested child inside another child.
    CHECK(perfbench::self_time_ns({0, 100}, {{10, 60}, {20, 30}}) == 50);
    // Children sticking out of the span count only inside it.
    CHECK(perfbench::self_time_ns({50, 100}, {{0, 60}, {90, 150}}) == 30);
    // Children wholly outside count nothing; order does not matter.
    CHECK(perfbench::self_time_ns({50, 100}, {{120, 130}, {0, 10}, {60, 70}}) == 40);
    // Fully covered span.
    CHECK(perfbench::self_time_ns({0, 100}, {{0, 100}}) == 0);
    // Empty span.
    CHECK(perfbench::self_time_ns({100, 100}, {{0, 200}}) == 0);
}

void test_histogram() {
    using H = perfbench::LogLinearHistogram;
    // Buckets tile the values: each value lands in the bucket whose range
    // holds it.
    for (std::uint64_t v : {0ull, 1ull, 31ull, 32ull, 63ull, 64ull, 65ull, 1000ull,
                            123456789ull, ~0ull >> 1}) {
        const std::size_t b = H::bucket_of(v);
        CHECK(b < H::kBuckets);
        CHECK(H::bucket_lower(b) <= static_cast<double>(v));
        CHECK(static_cast<double>(v) < H::bucket_lower(b) + H::bucket_width(b) + 1e-6 * static_cast<double>(v));
    }
    auto h = std::make_unique<H>();
    for (std::uint64_t v = 1; v <= 10000; ++v) {
        h->record(v, v % H::kShards);
    }
    CHECK(h->count() == 10000);
    CHECK(near(h->quantile(0.5), 5000, 1.0 / 32));
    CHECK(near(h->quantile(0.99), 9900, 1.0 / 32));
    CHECK(near(h->tail(0.99), 9900, 1.0 / 32));
    const H empty_hist;
    CHECK(empty_hist.quantile(0.5) == 0.0);
}

perfbench::Result sample_result() {
    perfbench::Result r;
    r.correct = true;
    r.attempted = 123456789012ull;
    r.failed = 0;
    r.metrics = {
        {"setup_s", 0.81273645192837465, "s"},
        {"throughput_per_s", 212345.67891234567, "op/s"},
        {"latency_p99_us", 1.0 / 3.0, "us"},
        {"core.alloc_hit_ratio", 0.98612, "ratio"},
        {"tiny", 5e-324, "s"},
        {"big", 1.7976931348623157e308, "count"},
        {"quote\"name", 1.0, "u\\nit"},
    };
    return r;
}

void test_format_result() {
    const std::string line = perfbench::format_result(sample_result());
    CHECK(line.find('\n') == std::string::npos);
    CHECK(line.rfind("{\"correct\": true, \"attempted\": 123456789012, \"failed\": 0, "
                     "\"metrics\": {",
                     0) == 0);
    CHECK(line.find("\"setup_s\": {\"value\": 0.8127364519283746, \"unit\": \"s\"}") !=
          std::string::npos);
    CHECK(line.find("\"quote\\\"name\"") != std::string::npos);
    // Every number reads back bit for bit.
    for (double v : {0.1, 1.0 / 3.0, 5e-324, 123456.789, 2.0e-9}) {
        CHECK(std::strtod(perfbench::format_number(v).c_str(), nullptr) == v);
    }
}

}  // namespace

int main(int argc, char** argv) {
    if (argc > 1 && std::strcmp(argv[1], "--emit") == 0) {
        std::printf("%s\n", perfbench::format_result(sample_result()).c_str());
        return 0;
    }
    test_tail_quantile();
    test_quantile_of();
    test_self_time();
    test_histogram();
    test_format_result();
    if (failures != 0) {
        std::fprintf(stderr, "%d check(s) failed\n", failures);
        return 1;
    }
    std::printf("perfbench_selftest: all checks passed\n");
    return 0;
}
