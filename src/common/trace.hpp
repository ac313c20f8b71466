// Request tracing: a trace_id minted per client call, carried hop-to-hop in
// the wire protocol (proto::Query / SolveRequest), with per-hop span timings
// recorded at each process.
//
// A span is (name, start offset, duration) relative to the recording
// process's view of the request. record_span() does two things:
//   - emits one structured log line on the "trace" tag at debug level:
//       trace=<16-hex> span=<name> start_ms=<..> dur_ms=<..>
//     so a grep over interleaved multi-process logs reconstructs any
//     request's path;
//   - folds the duration into the process-wide metrics registry under
//     "span.<name>_s", so per-hop latency distributions (p50/p95/p99) are
//     scrapeable from any live process via METRICS_QUERY.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace ns::metrics {
class Histogram;
}  // namespace ns::metrics

namespace ns::trace {

using TraceId = std::uint64_t;
inline constexpr TraceId kNoTrace = 0;

/// Mint a process-unique, run-unique trace id (never kNoTrace).
TraceId new_trace_id() noexcept;

/// Canonical 16-hex-digit rendering used in log lines.
std::string trace_id_hex(TraceId id);

/// One hop's timing within a request, offsets in seconds relative to the
/// request's local start (client call entry, or server receipt).
struct Span {
  std::string name;
  double start_s = 0.0;
  double duration_s = 0.0;
};

/// Log the span (debug level, tag "trace") and aggregate its duration into
/// the metrics registry histogram "span.<name>_s".
void record_span(TraceId id, std::string_view name, double start_s, double duration_s);

/// The registry histogram record_span() folds `name` into. Per-call paths
/// resolve it once and use the overload below, which skips the registry's
/// mutex and by-name lookup.
metrics::Histogram& span_histogram(std::string_view name);

/// record_span() into `hist`, which must be span_histogram(name).
void record_span(TraceId id, std::string_view name, metrics::Histogram& hist, double start_s,
                 double duration_s);

}  // namespace ns::trace
