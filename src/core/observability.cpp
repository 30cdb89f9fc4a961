#include "core/observability.hpp"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <mutex>
#include <string>
#include <string_view>

#include "arch/settings.hpp"
#include "core/metrics.hpp"
#include "core/trace.hpp"
#include "core/trace_export.hpp"

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
    publish_alloc_metrics();  // allocator gauges into the registry first
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

/// "io.reactor.wakes" -> "lwt_io_reactor_wakes" (Prometheus name charset
/// is [a-zA-Z0-9_:]; we map everything else to '_').
std::string sanitize(std::string_view name) {
    std::string out = "lwt_";
    out.reserve(name.size() + 4);
    for (char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_';
        out.push_back(ok ? c : '_');
    }
    return out;
}

/// The per-stream unit histograms; /metrics names them lwt_unit_<name>_ns.
constexpr struct {
    const char* name;
    HistogramSnapshot StreamUnitMetrics::* field;
} kUnitSeries[] = {
    {"queue_dwell", &StreamUnitMetrics::queue_dwell},
    {"exec_time", &StreamUnitMetrics::exec_time},
    {"wake_latency", &StreamUnitMetrics::wake_latency},
};

void write_histogram(std::ostream& os, const std::string& name,
                     const std::string& labels, const HistogramSnapshot& h) {
    // Cumulative le-buckets over the occupied buckets; le is each bucket's
    // inclusive upper bound, so the series is valid however many buckets
    // we skip.
    const std::string sep = labels.empty() ? "" : ",";
    std::uint64_t cum = 0;
    for (std::size_t b = 0; b < h.buckets.size(); ++b) {
        if (h.buckets[b] == 0) {
            continue;
        }
        cum += h.buckets[b];
        const std::uint64_t le = HistogramSnapshot::bucket_lower(b) +
                                 (HistogramSnapshot::bucket_width(b) - 1);
        os << name << "_bucket{" << labels << sep << "le=\"" << le << "\"} "
           << cum << "\n";
    }
    os << name << "_bucket{" << labels << sep << "le=\"+Inf\"} " << h.count
       << "\n";
    const std::string braced = labels.empty() ? "" : "{" + labels + "}";
    os << name << "_sum" << braced << " " << h.sum << "\n";
    os << name << "_count" << braced << " " << h.count << "\n";
}

void print_histogram_row(std::ostream& os, const char* label,
                         const HistogramSnapshot& h) {
    char line[160];
    std::snprintf(line, sizeof(line),
                  "    %-12s n=%-10" PRIu64 " mean=%12.0fns p50=%12.0fns "
                  "p99=%12.0fns",
                  label, h.count, h.mean(), h.quantile(0.50),
                  h.quantile(0.99));
    os << line << "\n";
}

void histogram_json(std::ostream& os, const char* name,
                    const HistogramSnapshot& h) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"count\":%" PRIu64
                  ",\"mean_ns\":%.1f,\"p50_ns\":%.1f,\"p99_ns\":%.1f}",
                  name, h.count, h.mean(), h.quantile(0.50),
                  h.quantile(0.99));
    os << buf;
}

/// `items` rendered by `fn`, comma-separated, in an object or an array.
template <typename Items, typename Fn>
void json_list(std::ostream& os, char open, const Items& items, Fn fn) {
    os << open;
    const char* sep = "";
    for (const auto& item : items) {
        os << sep;
        sep = ",";
        fn(item);
    }
    os << (open == '[' ? ']' : '}');
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
    const MetricsSnapshot snap = snapshot_metrics();
    os << "== lwt metrics "
          "==========================================================\n";

    const TraceStats ts = Tracer::instance().stats();
    os << "trace events:";
    for (std::size_t i = 0; i < kTraceEventKinds; ++i) {
        os << " " << trace_event_name(static_cast<TraceEvent>(i)) << "="
           << ts.counts[i];
    }
    os << " dropped=" << ts.dropped << "\n";

    os << "per-stream unit latency:\n";
    for (const StreamUnitMetrics& m : snap.units) {
        if (m.stream == kNoStream) {
            os << "  external threads:\n";
        } else {
            os << "  stream " << m.stream << ":\n";
        }
        for (const auto& s : kUnitSeries) {
            print_histogram_row(os, s.name, m.*(s.field));
        }
    }
    if (!snap.counters.empty()) {
        os << "counters:\n";
        for (const auto& c : snap.counters) {
            os << "    " << c.name << "=" << c.value << "\n";
        }
    }
    if (!snap.gauges.empty()) {
        os << "gauges:\n";
        for (const auto& g : snap.gauges) {
            os << "    " << g.name << "=" << g.value << " (max=" << g.max
               << ")\n";
        }
    }
    if (!snap.histograms.empty()) {
        os << "histograms:\n";
        for (const auto& h : snap.histograms) {
            print_histogram_row(os, h.name.c_str(), h.hist);
        }
    }
    os << "==========================================================="
          "=======\n";
    os.flush();
}

bool write_metrics_json(const std::string& path) {
    const MetricsSnapshot snap = snapshot_metrics();
    std::ofstream os(path, std::ios::out | std::ios::trunc);
    os << "{\"streams\":";
    json_list(os, '[', snap.units, [&os](const StreamUnitMetrics& m) {
        os << "{\"stream\":"
           << (m.stream == kNoStream ? "null" : std::to_string(m.stream));
        for (const auto& s : kUnitSeries) {
            os << ",\"" << s.name << "\":";
            histogram_json(os, s.name, m.*(s.field));
        }
        os << '}';
    });
    os << ",\"counters\":";
    json_list(os, '{', snap.counters, [&os](const auto& c) {
        os << '"' << c.name << "\":" << c.value;
    });
    os << ",\"gauges\":";
    json_list(os, '{', snap.gauges, [&os](const auto& g) {
        os << '"' << g.name << "\":{\"value\":" << g.value
           << ",\"max\":" << g.max << '}';
    });
    os << ",\"histograms\":";
    json_list(os, '{', snap.histograms, [&os](const auto& h) {
        os << '"' << h.name << "\":";
        histogram_json(os, h.name.c_str(), h.hist);
    });
    os << "}\n";
    os.flush();
    return os.good();
}

void write_prometheus_text(std::ostream& os) {
    publish_alloc_metrics();  // allocator gauges refresh on every scrape
    const MetricsSnapshot snap = snapshot_metrics();
    for (const auto& c : snap.counters) {
        const std::string name = sanitize(c.name);
        os << "# TYPE " << name << " counter\n";
        os << name << " " << c.value << "\n";
    }
    for (const auto& g : snap.gauges) {
        const std::string name = sanitize(g.name);
        os << "# TYPE " << name << " gauge\n";
        os << name << " " << g.value << "\n";
        os << "# TYPE " << name << "_max gauge\n";
        os << name << "_max " << g.max << "\n";
    }
    for (const auto& h : snap.histograms) {
        const std::string name = sanitize(h.name);
        os << "# TYPE " << name << " histogram\n";
        write_histogram(os, name, "", h.hist);
    }

    // Per-stream unit-latency histograms (only populated when LWT_METRICS
    // is on; empty histograms still render a valid +Inf/sum/count triple).
    if (!snap.units.empty()) {
        for (const auto& s : kUnitSeries) {
            const std::string name = std::string("lwt_unit_") + s.name + "_ns";
            os << "# TYPE " << name << " histogram\n";
            for (const auto& u : snap.units) {
                const std::string stream = u.stream == kNoStream
                                               ? "external"
                                               : std::to_string(u.stream);
                write_histogram(os, name, "stream=\"" + stream + "\"",
                                u.*(s.field));
            }
        }
    }

    // Live streams: counters the registry only learns about at stream
    // teardown. The `stream` label is the directory position (unique while
    // the process runs several runtimes whose ranks overlap); `rank` is
    // the stream's rank within its own runtime.
    const auto& streams = snap.streams;
    if (streams.empty()) {
        return;
    }
    const auto series = [&os, &streams](const char* name, const char* type,
                                        auto value) {
        os << "# TYPE " << name << " " << type << "\n";
        for (std::size_t i = 0; i < streams.size(); ++i) {
            os << name << "{stream=\"" << i << "\",rank=\""
               << streams[i].rank << "\"} " << value(streams[i]) << "\n";
        }
    };
    series("lwt_stream_executed", "counter",
           [](const StreamSample& s) { return s.executed; });
    series("lwt_stream_progress_epoch", "counter",
           [](const StreamSample& s) { return s.progress_epoch; });
    series("lwt_stream_pool_depth", "gauge",
           [](const StreamSample& s) { return s.pool_depth; });
    series("lwt_stream_steal_attempts", "counter",
           [](const StreamSample& s) { return s.sched.steal_attempts; });
    series("lwt_stream_steal_hits", "counter",
           [](const StreamSample& s) { return s.sched.steal_hits; });
    series("lwt_stream_idle_spins", "counter",
           [](const StreamSample& s) { return s.sched.idle_spins; });
    series("lwt_stream_idle_yields", "counter",
           [](const StreamSample& s) { return s.sched.idle_yields; });
    series("lwt_stream_parks", "counter",
           [](const StreamSample& s) { return s.sched.parks; });
    for (const char* dir : {"attempts", "hits"}) {
        const bool hits = std::string_view(dir) == "hits";
        const std::string name =
            std::string("lwt_stream_steal_tier_") + dir;
        os << "# TYPE " << name << " counter\n";
        for (std::size_t i = 0; i < streams.size(); ++i) {
            for (std::size_t t = 0; t < kStealTiers; ++t) {
                os << name << "{stream=\"" << i << "\",rank=\""
                   << streams[i].rank << "\",tier=\"" << steal_tier_name(t)
                   << "\"} "
                   << (hits ? streams[i].sched.tier_hits[t]
                            : streams[i].sched.tier_attempts[t])
                   << "\n";
            }
        }
    }
}

}  // namespace lwt::core
