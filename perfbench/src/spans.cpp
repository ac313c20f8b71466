#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

std::uint16_t SpanLog::intern(std::string_view name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint16_t>(i);
  }
  names_.emplace_back(name);
  return static_cast<std::uint16_t>(names_.size() - 1);
}

std::int32_t SpanLog::add(std::uint64_t call, std::string_view name, std::int32_t parent,
                          double start_s, double end_s) {
  spans_.push_back(SpanRec{call, intern(name), parent, start_s, end_s});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void SpanLog::add_call(std::uint64_t call, std::string_view root_name, double start_s,
                       double end_s, const std::vector<ns::trace::Span>& hops) {
  const std::int32_t root = add(call, root_name, -1, start_s, end_s);
  std::int32_t query = root;
  std::int32_t attempt = root;
  for (const auto& hop : hops) {
    const double s = start_s + hop.start_s;
    const double e = s + hop.duration_s;
    if (hop.name == "client.query") {
      query = add(call, hop.name, root, s, e);
    } else if (hop.name == "agent.schedule") {
      add(call, hop.name, query, s, e);
    } else if (hop.name == "client.attempt") {
      attempt = add(call, hop.name, root, s, e);
    } else if (hop.name.starts_with("server.") || hop.name == "client.result_transfer") {
      add(call, hop.name, attempt, s, e);
    } else {
      add(call, hop.name, root, s, e);
    }
  }
}

void SpanLog::append(const SpanLog& other) {
  const auto base = static_cast<std::int32_t>(spans_.size());
  std::vector<std::uint16_t> remap;
  remap.reserve(other.names_.size());
  for (const auto& n : other.names_) remap.push_back(intern(n));
  spans_.reserve(spans_.size() + other.spans_.size());
  for (SpanRec rec : other.spans_) {
    rec.name = remap[rec.name];
    if (rec.parent >= 0) rec.parent += base;
    spans_.push_back(rec);
  }
}

std::map<std::string, double> SpanLog::self_seconds(std::string_view root_name) const {
  // Children of a span always follow it in the log, so one forward pass can
  // resolve each span's root, and children can be grouped by parent.
  const std::size_t n = spans_.size();
  std::vector<std::int32_t> root(n);
  std::vector<std::vector<std::pair<double, double>>> children(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto p = spans_[i].parent;
    root[i] = p < 0 ? static_cast<std::int32_t>(i) : root[static_cast<std::size_t>(p)];
    if (p >= 0) {
      children[static_cast<std::size_t>(p)].emplace_back(spans_[i].start_s, spans_[i].end_s);
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < n; ++i) {
    if (!root_name.empty() &&
        names_[spans_[static_cast<std::size_t>(root[i])].name] != root_name) {
      continue;
    }
    const double lo = spans_[i].start_s;
    const double hi = spans_[i].end_s;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Length of the union of the children's intervals, clipped to the span.
    double covered = 0.0;
    double reach = lo;
    for (const auto& [s, e] : kids) {
      const double from = std::max(s, reach);
      const double to = std::min(e, hi);
      if (to > from) covered += to - from;
      reach = std::max(reach, std::min(e, hi));
    }
    self[names_[spans_[i].name]] += (hi - lo) - covered;
  }
  return self;
}

bool SpanLog::write_tsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "call\tname\tparent\tstart_us\tend_us\n");
  for (const auto& s : spans_) {
    std::fprintf(f, "%llu\t%s\t%d\t%.3f\t%.3f\n", static_cast<unsigned long long>(s.call),
                 names_[s.name].c_str(), s.parent, s.start_s * 1e6, s.end_s * 1e6);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
