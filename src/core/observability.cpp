#include "core/observability.hpp"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <mutex>
#include <ostream>
#include <string>

#include "arch/audit.hpp"
#include "arch/settings.hpp"
#include "arch/stack.hpp"
#include "core/metrics.hpp"
#include "core/trace.hpp"
#include "core/trace_export.hpp"
#include "core/unit_cache.hpp"

namespace lwt::core {
namespace {

struct ObsState {
    std::mutex mutex;
    int refcount = 0;
    bool trace_on = false;     // armed by the outermost attach
    bool metrics_on = false;
    std::string trace_path;
    std::string metrics_json_path;
};

ObsState& state() {
    static ObsState s;
    return s;
}

/// Enable the recorders `cfg` names; flush() disarms them at the last
/// detach. With no sink set, recorders enabled by other means
/// (glt::trace_begin, tests) are left alone.
void arm(ObsState& s, const arch::Settings& cfg) {
    s.trace_on = !cfg.trace_path.empty();
    s.trace_path = cfg.trace_path;
    if (s.trace_on) {
        Tracer::instance().enable();
    }
    s.metrics_on = cfg.metrics;
    s.metrics_json_path = cfg.metrics_json;
    if (s.metrics_on) {
        Metrics::instance().enable();
    }
}

void flush(ObsState& s) {
    publish_alloc_metrics();  // allocator totals into the registry first
    if (s.trace_on) {
        const TraceStats stats = Tracer::instance().stats();
        const auto records = Tracer::instance().snapshot();
        if (write_chrome_trace_file(s.trace_path, records)) {
            std::fprintf(stderr,
                         "lwt: wrote %zu trace events (%" PRIu64
                         " dropped) to %s\n",
                         records.size(), stats.dropped, s.trace_path.c_str());
        } else {
            std::fprintf(stderr, "lwt: failed to write trace to %s\n",
                         s.trace_path.c_str());
        }
    }
    if (s.metrics_on) {
        // Report before the tracer is cleared so the trace-event counts in
        // the table reflect the recorded run.
        print_metrics_report(std::cerr);
        if (!s.metrics_json_path.empty() &&
            !write_metrics_json(s.metrics_json_path)) {
            std::fprintf(stderr, "lwt: failed to write metrics to %s\n",
                         s.metrics_json_path.c_str());
        }
        Metrics::instance().disable();
        Metrics::instance().reset();
        MetricsRegistry::instance().reset_values();
    }
    if (s.trace_on) {
        // Clear last: the next boot/teardown cycle (bench sweeps) re-arms,
        // records and flushes afresh.
        Tracer::instance().disable();
        Tracer::instance().clear();
    }
    s.trace_on = false;
    s.metrics_on = false;
}

void print_histogram_row(std::ostream& os, const char* label,
                         const HistogramSnapshot& h, double ticks_per_us) {
    char line[160];
    std::snprintf(line, sizeof(line),
                  "    %-12s n=%-10" PRIu64 " mean=%10.2fus p50=%10.2fus "
                  "p99=%10.2fus",
                  label, h.count, h.mean() / ticks_per_us,
                  static_cast<double>(h.percentile(0.50)) / ticks_per_us,
                  static_cast<double>(h.percentile(0.99)) / ticks_per_us);
    os << line << "\n";
}

void append_histogram_json(std::string& out, const char* name,
                           const HistogramSnapshot& h, double ticks_per_us) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"count\":%" PRIu64
                  ",\"mean_us\":%.3f,\"p50_us\":%.3f,\"p99_us\":%.3f}",
                  name, h.count, h.mean() / ticks_per_us,
                  static_cast<double>(h.percentile(0.50)) / ticks_per_us,
                  static_cast<double>(h.percentile(0.99)) / ticks_per_us);
    out += buf;
}

}  // namespace

ObservabilitySession::ObservabilitySession() {
    const arch::Settings cfg = arch::load_settings();
    ObsState& s = state();
    std::lock_guard g(s.mutex);
    if (s.refcount++ == 0) {
        arm(s, cfg);
    }
}

ObservabilitySession::~ObservabilitySession() {
    ObsState& s = state();
    std::lock_guard g(s.mutex);
    if (--s.refcount == 0 && (s.trace_on || s.metrics_on)) {
        flush(s);
    }
}

bool observability_armed() noexcept {
    ObsState& s = state();
    std::lock_guard g(s.mutex);
    return s.trace_on || s.metrics_on;
}

void print_metrics_report(std::ostream& os) {
    const double tpu = tsc_ticks_per_us();
    os << "== lwt metrics "
          "==========================================================\n";

    const TraceStats ts = Tracer::instance().stats();
    os << "trace events:";
    for (std::size_t i = 0; i < kTraceEventKinds; ++i) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), " %s=%" PRIu64,
                      std::string(trace_event_name(
                                      static_cast<TraceEvent>(i)))
                          .c_str(),
                      ts.counts[i]);
        os << buf;
    }
    {
        char buf[48];
        std::snprintf(buf, sizeof(buf), " dropped=%" PRIu64 "\n", ts.dropped);
        os << buf;
    }

    os << "per-stream unit latency (tsc at " << tpu << " ticks/us):\n";
    for (const StreamUnitMetrics& m : Metrics::instance().unit_metrics()) {
        if (m.stream == kNoStream) {
            os << "  external threads:\n";
        } else {
            os << "  stream " << m.stream << ":\n";
        }
        print_histogram_row(os, "queue-dwell", m.queue_dwell, tpu);
        print_histogram_row(os, "exec", m.exec_time, tpu);
        print_histogram_row(os, "wake-latency", m.wake_latency, tpu);
    }

    const auto counters = MetricsRegistry::instance().counters();
    if (!counters.empty()) {
        os << "counters:\n";
        for (const auto& c : counters) {
            os << "    " << c.name << "=" << c.value << "\n";
        }
    }
    const auto gauges = MetricsRegistry::instance().gauges();
    if (!gauges.empty()) {
        os << "gauges:\n";
        for (const auto& g : gauges) {
            os << "    " << g.name << "=" << g.value << " (max=" << g.max
               << ", samples=" << g.samples << ")\n";
        }
    }
    for (const auto& h : MetricsRegistry::instance().histograms()) {
        print_histogram_row(os, h.name.c_str(), h.hist, tpu);
    }
    os << "==========================================================="
          "=======\n";
    os.flush();
}

void publish_alloc_metrics() {
    MetricsRegistry& reg = MetricsRegistry::instance();
    const auto set_counter = [&reg](const char* name, std::uint64_t v) {
        Counter& c = reg.counter(name);
        c.reset();
        c.inc(v);
    };
    const UnitCacheTotals t = unit_cache_totals();
    set_counter("alloc.unit_cache.allocs", t.allocs);
    set_counter("alloc.unit_cache.hits", t.hits);
    set_counter("alloc.unit_cache.misses", t.misses);
    reg.gauge("alloc.slab.bytes").set(static_cast<std::int64_t>(t.slab_bytes));
    reg.gauge("alloc.stack.maps")
        .set(static_cast<std::int64_t>(arch::stack_map_count()));
    reg.gauge("alloc.stack.unmaps")
        .set(static_cast<std::int64_t>(arch::stack_unmap_count()));
    reg.gauge("alloc.stack.thp_denied")
        .set(static_cast<std::int64_t>(arch::stack_thp_denied_count()));
    if (arch::audit::enabled()) {
        const arch::audit::Snapshot a = arch::audit::snapshot();
        set_counter("create.count", t.allocs);
        set_counter("create.atomics", a.rmw);
        set_counter("create.alloc_ticks", a.alloc_ticks);
        set_counter("create.alloc_samples", a.alloc_samples);
    }
}

bool write_metrics_json(const std::string& path) {
    const double tpu = tsc_ticks_per_us();
    std::string out = "{\"streams\":[";
    bool first = true;
    for (const StreamUnitMetrics& m : Metrics::instance().unit_metrics()) {
        if (!first) {
            out += ",";
        }
        first = false;
        out += "{\"stream\":";
        out += m.stream == kNoStream ? "null" : std::to_string(m.stream);
        out += ",\"queue_dwell\":";
        append_histogram_json(out, "queue_dwell", m.queue_dwell, tpu);
        out += ",\"exec_time\":";
        append_histogram_json(out, "exec_time", m.exec_time, tpu);
        out += ",\"wake_latency\":";
        append_histogram_json(out, "wake_latency", m.wake_latency, tpu);
        out += "}";
    }
    out += "],\"counters\":{";
    first = true;
    for (const auto& c : MetricsRegistry::instance().counters()) {
        if (!first) {
            out += ",";
        }
        first = false;
        out += "\"" + c.name + "\":" + std::to_string(c.value);
    }
    out += "},\"gauges\":{";
    first = true;
    for (const auto& g : MetricsRegistry::instance().gauges()) {
        if (!first) {
            out += ",";
        }
        first = false;
        out += "\"" + g.name + "\":{\"value\":" + std::to_string(g.value) +
               ",\"max\":" + std::to_string(g.max) + "}";
    }
    out += "},\"histograms\":{";
    first = true;
    for (const auto& h : MetricsRegistry::instance().histograms()) {
        if (!first) {
            out += ",";
        }
        first = false;
        out += "\"" + h.name + "\":";
        append_histogram_json(out, h.name.c_str(), h.hist, tpu);
    }
    out += "}}\n";

    std::ofstream file(path, std::ios::out | std::ios::trunc);
    if (!file.is_open()) {
        return false;
    }
    file << out;
    file.flush();
    return file.good();
}

}  // namespace lwt::core
