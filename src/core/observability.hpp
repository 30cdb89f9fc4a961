// observability.hpp — env-driven arm/flush of the tracer and metrics.
//
// Every runtime object (core::Runtime, the five personality Libraries,
// momp::Runtime) holds one ObservabilitySession as its first member, so
// constructing the session is where a boot starts: it re-resolves
// arch::Settings (load_settings). The OUTERMOST session arms the
// process-wide recorders the settings name; when the LAST session detaches
// (outermost runtime teardown), the recorded data is flushed and the
// recorders it armed are disarmed. That gives every bench, test, and
// personality the same switches with zero per-runtime wiring:
//
//   LWT_TRACE=out.json      record unit lifecycles, write a Chrome-trace
//                           JSON (Perfetto / chrome://tracing) at shutdown
//   LWT_METRICS=1           record latency histograms; print the report
//                           to stderr at shutdown
//   LWT_METRICS=out.json    same, plus a machine-readable JSON dump
//
// Runtimes nest (glt -> personality -> core::Runtime); the refcount makes
// the flush fire exactly once per quiescent period, after the outermost
// teardown. Repeated boot/teardown cycles (bench sweeps) re-arm, re-record
// and re-flush; the trace file reflects the last cycle.
// The sinks below (and /stats in src/obs/introspect.cpp) only render
// core::snapshot_metrics().
#pragma once

#include <iosfwd>
#include <string>

namespace lwt::core {

class ObservabilitySession {
  public:
    ObservabilitySession();
    ~ObservabilitySession();
    ObservabilitySession(const ObservabilitySession&) = delete;
    ObservabilitySession& operator=(const ObservabilitySession&) = delete;
};

/// True while LWT_TRACE / LWT_METRICS (or glt::init's sinks) have the
/// recorders armed: from the outermost attach to the last detach.
bool observability_armed() noexcept;

/// The human-readable report: trace event counts, per-stream unit latency,
/// registry counters, gauges and histograms. What LWT_METRICS=1 prints to
/// stderr at shutdown.
void print_metrics_report(std::ostream& os);

/// The same content as JSON. Returns false on IO failure.
bool write_metrics_json(const std::string& path);

/// The Prometheus text exposition (served on /metrics): registry metrics
/// as `lwt_<name>`, per-stream unit histograms `lwt_unit_*_ns{stream=..}`
/// and live `lwt_stream_*{stream=..}` series; histogram buckets render
/// cumulatively, one per occupied bucket, plus `+Inf`.
void write_prometheus_text(std::ostream& os);

}  // namespace lwt::core
