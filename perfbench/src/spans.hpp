// Benchmark-side spans: name, start, end, parent, and call id, kept in
// memory during the traced pass and written out when the run ends.
//
// Each netsl call is a root span timed by the benchmark around the call. The
// hop spans the client reports in CallStats::spans become its children; the
// micro-timed serial/proto/linalg calls are roots of their own. A span's self
// time is its duration minus the part of it its children cover.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/trace.hpp"

namespace perfbench {

struct SpanRec {
  std::uint64_t call = 0;
  std::uint16_t name = 0;  // index into SpanLog::names()
  std::int32_t parent = -1;  // index into SpanLog::spans(), -1 = root
  double start_s = 0.0;
  double end_s = 0.0;
};

class SpanLog {
 public:
  /// Record one span; returns its index (the parent handle for children).
  std::int32_t add(std::uint64_t call, std::string_view name, std::int32_t parent,
                   double start_s, double end_s);

  /// Record a netsl call: a root span [start_s, end_s] named `root_name` and
  /// the client's hop spans (offsets relative to call entry) as children —
  /// agent.schedule under its client.query, the server spans and
  /// client.result_transfer under the attempt they belong to.
  void add_call(std::uint64_t call, std::string_view root_name, double start_s, double end_s,
                const std::vector<ns::trace::Span>& hops);

  /// Move another log's spans into this one (indices and names remapped).
  void append(const SpanLog& other);

  const std::vector<SpanRec>& spans() const noexcept { return spans_; }
  const std::vector<std::string>& names() const noexcept { return names_; }

  /// Self time summed per span name, over the trees whose root is named
  /// `root_name` (every tree when empty).
  std::map<std::string, double> self_seconds(std::string_view root_name = {}) const;

  /// Write every span as one tab-separated line
  /// (call, name, parent, start_us, end_us) under a header line.
  bool write_tsv(const std::string& path) const;

 private:
  std::uint16_t intern(std::string_view name);

  std::vector<SpanRec> spans_;
  std::vector<std::string> names_;
};

}  // namespace perfbench
