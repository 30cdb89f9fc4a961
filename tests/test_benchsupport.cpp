// Tests for the benchmark support layer: stats, sweeps, Top500 dataset.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "benchsupport/harness.hpp"
#include "benchsupport/stats.hpp"
#include "benchsupport/top500.hpp"

namespace {

using lwt::benchsupport::env_flag;
using lwt::benchsupport::env_size;
using lwt::benchsupport::measure_ms;
using lwt::benchsupport::Series;
using lwt::benchsupport::Summary;
using lwt::benchsupport::SweepConfig;
using lwt::benchsupport::Timer;

TEST(Stats, SummaryOfKnownSamples) {
    const Summary s = Summary::of({1.0, 2.0, 3.0, 4.0});
    EXPECT_DOUBLE_EQ(s.mean, 2.5);
    EXPECT_DOUBLE_EQ(s.min, 1.0);
    EXPECT_DOUBLE_EQ(s.max, 4.0);
    EXPECT_EQ(s.n, 4u);
    // stddev = sqrt(1.25) -> RSD = 100*sqrt(1.25)/2.5 ~= 44.72%
    EXPECT_NEAR(s.rsd_percent, 44.72, 0.01);
}

TEST(Stats, SummaryOfConstantSamplesHasZeroRsd) {
    const Summary s = Summary::of({5.0, 5.0, 5.0});
    EXPECT_DOUBLE_EQ(s.mean, 5.0);
    EXPECT_DOUBLE_EQ(s.rsd_percent, 0.0);
}

TEST(Stats, SummaryOfEmptyIsZero) {
    const Summary s = Summary::of({});
    EXPECT_EQ(s.n, 0u);
    EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(Stats, TimerMeasuresElapsedTime) {
    Timer t;
    t.start();
    volatile long sink = 0;
    for (long i = 0; i < 2000000; ++i) {
        sink = sink + i;
    }
    const double ms = t.stop_ms();
    EXPECT_GT(ms, 0.0);
    EXPECT_LT(ms, 10000.0);
}

TEST(Stats, MeasureMsRunsWarmupPlusReps) {
    int calls = 0;
    const Summary s = measure_ms(5, 2, [&] { ++calls; });
    EXPECT_EQ(calls, 7);
    EXPECT_EQ(s.n, 5u);
}

TEST(Sweep, FromEnvParsesThreadList) {
    ::setenv("LWTBENCH_THREADS", "1,3,9", 1);
    ::setenv("LWTBENCH_REPS", "11", 1);
    ::setenv("LWTBENCH_WARMUP", "0", 1);
    const SweepConfig cfg = SweepConfig::from_env();
    EXPECT_EQ(cfg.thread_counts, (std::vector<std::size_t>{1, 3, 9}));
    EXPECT_EQ(cfg.reps, 11u);
    EXPECT_EQ(cfg.warmup, 0u);
    ::unsetenv("LWTBENCH_THREADS");
    ::unsetenv("LWTBENCH_REPS");
    ::unsetenv("LWTBENCH_WARMUP");
}

TEST(Sweep, MalformedKnobsWarnOnceAndKeepTheDefault) {
    ::unsetenv("LWTBENCH_THREADS");
    ::unsetenv("LWTBENCH_REPS");
    const SweepConfig defaults = SweepConfig::from_env();
    struct Row {
        const char* name;
        const char* value;
    };
    for (const Row row : {Row{"LWTBENCH_REPS", "3x"},
                          Row{"LWTBENCH_THREADS", "abc"},
                          Row{"LWTBENCH_THREADS", "-1"},
                          Row{"LWTBENCH_THREADS", "2,x"}}) {
        ::setenv(row.name, row.value, 1);
        testing::internal::CaptureStderr();
        const SweepConfig cfg = SweepConfig::from_env();
        const std::string first = testing::internal::GetCapturedStderr();
        testing::internal::CaptureStderr();
        (void)SweepConfig::from_env();
        const std::string second = testing::internal::GetCapturedStderr();
        ::unsetenv(row.name);
        EXPECT_EQ(cfg.thread_counts, defaults.thread_counts) << row.value;
        EXPECT_EQ(cfg.reps, defaults.reps) << row.value;
        EXPECT_NE(first.find(std::string(row.name) + "=\"" + row.value),
                  std::string::npos)
            << first;
        EXPECT_EQ(second, "") << "warned twice for " << row.value;
    }
}

TEST(Sweep, KnobsUseTheSettingsGrammar) {
    ::setenv("LWTBENCH_TEST_N", "42", 1);
    EXPECT_EQ(env_size("LWTBENCH_TEST_N", 7), 42u);
    ::setenv("LWTBENCH_TEST_N", "0", 1);
    EXPECT_EQ(env_size("LWTBENCH_TEST_N", 7, 0), 0u);
    testing::internal::CaptureStderr();
    EXPECT_EQ(env_size("LWTBENCH_TEST_N", 7), 7u);  // below the minimum
    EXPECT_NE(testing::internal::GetCapturedStderr().find("LWTBENCH_TEST_N"),
              std::string::npos);
    ::unsetenv("LWTBENCH_TEST_N");
    EXPECT_EQ(env_size("LWTBENCH_TEST_N", 7), 7u);

    for (const char* on : {"1", "true", "ON", "yes"}) {
        ::setenv("LWTBENCH_TEST_FLAG", on, 1);
        EXPECT_TRUE(env_flag("LWTBENCH_TEST_FLAG")) << on;
    }
    for (const char* off : {"0", "false", "Off", "no"}) {
        ::setenv("LWTBENCH_TEST_FLAG", off, 1);
        EXPECT_FALSE(env_flag("LWTBENCH_TEST_FLAG", true)) << off;
    }
    ::setenv("LWTBENCH_TEST_FLAG", "2", 1);
    testing::internal::CaptureStderr();
    EXPECT_TRUE(env_flag("LWTBENCH_TEST_FLAG", true));
    EXPECT_NE(testing::internal::GetCapturedStderr().find("LWTBENCH_TEST_FLAG"),
              std::string::npos);
    ::unsetenv("LWTBENCH_TEST_FLAG");
}

TEST(Sweep, DefaultsAreNonEmpty) {
    ::unsetenv("LWTBENCH_THREADS");
    const SweepConfig cfg = SweepConfig::from_env();
    EXPECT_FALSE(cfg.thread_counts.empty());
    EXPECT_GE(cfg.reps, 1u);
}

TEST(Sweep, RunSweepShapesGrid) {
    SweepConfig cfg;
    cfg.thread_counts = {1, 2};
    cfg.reps = 3;
    cfg.warmup = 0;
    std::vector<Series> series;
    int factory_calls = 0;
    series.push_back(Series{"s1", [&](std::size_t) {
                                ++factory_calls;
                                return [] {};
                            }});
    series.push_back(Series{"s2", [&](std::size_t) {
                                ++factory_calls;
                                return [] {};
                            }});
    const auto grid = lwt::benchsupport::run_sweep(cfg, series);
    ASSERT_EQ(grid.size(), 2u);
    ASSERT_EQ(grid[0].size(), 2u);
    EXPECT_EQ(grid[0][0].n, 3u);
    EXPECT_EQ(factory_calls, 4);  // one per series x thread count
}

TEST(Top500, FifteenYearsEachSummingTo100) {
    const auto& series = lwt::benchsupport::top500_series();
    ASSERT_EQ(series.size(), 15u);
    EXPECT_EQ(series.front().year, 2001);
    EXPECT_EQ(series.back().year, 2015);
    for (const auto& y : series) {
        double sum = 0.0;
        for (double s : y.share) {
            EXPECT_GE(s, 0.0);
            sum += s;
        }
        EXPECT_NEAR(sum, 100.0, 0.01) << y.year;
    }
}

TEST(Top500, CoresPerSocketGrowMonotonically) {
    // The figure's message: the share of >=4-core sockets never shrinks
    // much; the single-core share vanishes.
    const auto& series = lwt::benchsupport::top500_series();
    EXPECT_GT(series.front().share[0], 90.0);  // 2001: nearly all 1-core
    EXPECT_LT(series.back().share[0], 1.0);    // 2015: none
    double prev_many = -1.0;
    for (const auto& y : series) {
        double many = 0.0;
        for (std::size_t b = 2; b < y.share.size(); ++b) {
            many += y.share[b];
        }
        EXPECT_GE(many + 1e-9, prev_many) << y.year;  // non-decreasing
        prev_many = many;
    }
}

TEST(Top500, CsvHasHeaderAndFifteenRows) {
    const std::string csv = lwt::benchsupport::render_top500_csv();
    EXPECT_NE(csv.find("year,cores_1,cores_2"), std::string::npos);
    std::size_t rows = 0;
    for (char c : csv) {
        rows += c == '\n' ? 1 : 0;
    }
    EXPECT_EQ(rows, 18u);  // 2 comment lines + header + 15 data rows
}

}  // namespace
