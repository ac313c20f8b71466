// netsolve_perfbench: the NetSolve end-to-end benchmark.
//
//   netsolve_perfbench --workload <rpc_small|bulk_args|dense_farm> --seed <n>
//                      --seconds <s> --trace <0|1> [--spans-out <path>]
//
// Starts an in-process TestCluster, drives it closed-loop from 4 caller
// threads (one NetSolveClient each), checks every output, and prints every
// metric as a "metric <name> <value> <unit>" line. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//   --trace 0  end-to-end metrics, measured with benchmark tracing off
//   --trace 1  per-layer metrics: an untraced pass, then a traced pass that
//              records every call's span tree, then single-threaded timings
//              of the serial/proto/linalg layers and agent round-trip probes
// Exit status is non-zero, with no result line, when the run cannot be made.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "deck.hpp"
#include "runner.hpp"
#include "layers.hpp"

using namespace perfbench;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_out;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      a.trace = std::stoi(value) != 0;
    } else if (flag == "--spans-out") {
      a.spans_out = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
  return a;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return percentile(v, 0.5);
}

/// Metrics in print order; each printed once as a line, then in the JSON.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           const std::string& note = {}) {
    if (!std::isfinite(value)) {
      problems.push_back("metric " + name + " is not finite");
      value = 0.0;
    }
    std::printf("metric %-28s %-14.6g %-8s %s\n", name.c_str(), value, unit.c_str(),
                note.c_str());
    json_ += (json_.empty() ? "" : ", ");
    char buf[512];
    std::snprintf(buf, sizeof buf, "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", name.c_str(),
                  value, unit.c_str());
    json_ += buf;
  }

  void check(bool ok, const std::string& what) {
    std::printf("check  %-4s %s\n", ok ? "ok" : "FAIL", what.c_str());
    if (!ok) problems.push_back(what);
  }

  void finish(std::uint64_t attempted, std::uint64_t failed) const {
    std::fflush(stdout);
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
                problems.empty() && failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed), json_.c_str());
    std::fflush(stdout);
  }

  std::vector<std::string> problems;

 private:
  std::string json_;
};

/// Attempted/failed tallies and the server-span check over a set of calls.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  // errored, or returned a wrong answer
  std::uint64_t returned = 0;
  std::uint64_t server_spans = 0;

  void add(const Phase& phase) {
    for (const auto& c : phase.calls) {
      ++attempted;
      if (!c.verified) ++failed;
      if (c.returned) {
        ++returned;
        server_spans += static_cast<std::uint64_t>(c.server_spans);
      }
    }
  }
};

void print_host(const Workload& w) {
  const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  std::uint64_t largest = 0;
  for (const auto& item : w.deck) {
    for (const auto& arg : item.args) largest = std::max<std::uint64_t>(largest, arg.byte_size());
  }
  std::printf("host   nproc=%u l3_cache=%s build=%s\n", std::thread::hardware_concurrency(),
              l3 > 0 ? (std::to_string(l3 >> 20) + "MiB").c_str() : "unknown",
              PERFBENCH_BUILD_TYPE);
  std::printf("deck   %s: %zu items, largest operand %.2f MiB%s, %d callers, %zu servers\n",
              w.name.c_str(), w.deck.size(), static_cast<double>(largest) / (1 << 20),
              l3 > 0 && static_cast<std::uint64_t>(l3) > 2 * largest ? " (fits in L3)" : "",
              w.callers, w.servers.size());
}

/// Latency percentile with the sample rule: a tail percentile is reportable
/// only with at least 10 samples beyond it.
std::string tail_note(std::size_t n, double q) {
  const double beyond = static_cast<double>(n) * (1.0 - q);
  char buf[96];
  std::snprintf(buf, sizeof buf, "(n=%zu, %.0f beyond%s)", n, beyond,
                beyond >= 10.0 ? "" : "; fewer than 10, not a reliable tail");
  return buf;
}

/// The end-to-end figures of one stretch of consecutive calls.
struct Window {
  double calls_per_s = 0.0;
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double payload_MBps = 0.0;
  double gflops = 0.0;
};

/// Splits the run's calls, in return order, into up to 10 windows of at
/// least 100 calls each (so 10 lie beyond each window's p90) and measures
/// each window on its own.
std::vector<Window> windows(const Workload& w, const Phase& p) {
  std::vector<const CallRecord*> done;
  for (const auto& c : p.calls) {
    if (c.returned) done.push_back(&c);
  }
  std::sort(done.begin(), done.end(),
            [](const CallRecord* a, const CallRecord* b) { return a->end_s < b->end_s; });
  const std::size_t n = done.size();
  const std::size_t k = std::clamp<std::size_t>(n / 100, 1, 10);
  std::vector<Window> out;
  double from = 0.0;
  for (std::size_t j = 0; j < k; ++j) {
    std::vector<double> lat_ms;
    double flops = 0.0, bytes = 0.0;
    for (std::size_t i = j * n / k; i < (j + 1) * n / k; ++i) {
      lat_ms.push_back(done[i]->latency_s * 1e3);
      flops += w.deck[done[i]->item].flops;
      bytes += static_cast<double>(done[i]->payload_bytes);
    }
    const double to = done[(j + 1) * n / k - 1]->end_s;
    const double span = to - from;
    from = to;
    std::sort(lat_ms.begin(), lat_ms.end());
    out.push_back(Window{static_cast<double>(lat_ms.size()) / span, percentile(lat_ms, 0.5),
                         percentile(lat_ms, 0.9), bytes / span / 1e6, flops / span / 1e9});
  }
  return out;
}

void report_end_to_end(Report& r, const Workload& w, const Phase& p, double setup_s,
                       const std::vector<double>& setups) {
  std::vector<double> lat_ms;
  for (const auto& c : p.calls) {
    if (c.returned) lat_ms.push_back(c.latency_s * 1e3);
  }
  std::sort(lat_ms.begin(), lat_ms.end());
  const auto win = windows(w, p);
  for (std::size_t i = 0; i < win.size(); ++i) {
    std::printf("window %-2zu calls/s %-12.6g p50 %-10.5g ms p90 %-10.5g ms MB/s %-10.5g\n", i,
                win[i].calls_per_s, win[i].p50_ms, win[i].p90_ms, win[i].payload_MBps);
  }
  // Other tenants of a shared host stall it for seconds at a time, and a
  // stall only ever slows a window down. Where every window holds enough
  // calls for its mix to match the deck's, the best window (highest rate,
  // lowest latency) is the most repeatable figure of what the system does.
  // With fewer calls per window the mix itself varies between windows, the
  // best window would be the one with the cheapest calls, and the median
  // window is reported instead. The notes give the whole-run figures.
  const bool use_best = lat_ms.size() / win.size() >= 1000;
  const char* how = use_best ? "best" : "median";
  const auto pick = [&](double Window::*field, bool higher) {
    std::vector<double> v;
    for (const auto& x : win) v.push_back(x.*field);
    if (!use_best) return median(v);
    return higher ? *std::max_element(v.begin(), v.end()) : *std::min_element(v.begin(), v.end());
  };
  char note[160];
  std::snprintf(note, sizeof note, "(median of %zu set-ups, min %.4f max %.4f)", setups.size(),
                *std::min_element(setups.begin(), setups.end()),
                *std::max_element(setups.begin(), setups.end()));
  r.add("setup_s", setup_s, "s", note);
  std::snprintf(note, sizeof note,
                "(%s of %zu windows of %zu+ calls; whole run %zu calls in %.3f s)", how,
                win.size(), lat_ms.size() / win.size(), lat_ms.size(), p.wall_s);
  r.add("calls_per_s", pick(&Window::calls_per_s, true), "1/s", note);
  std::snprintf(note, sizeof note, "(%s window; whole run %.6g, n=%zu)", how,
                percentile(lat_ms, 0.5), lat_ms.size());
  r.add("latency_p50_ms", pick(&Window::p50_ms, false), "ms", note);
  std::snprintf(note, sizeof note, "(%s window, %zu+ beyond in each; whole run %.6g)", how,
                lat_ms.size() / win.size() / 10, percentile(lat_ms, 0.9));
  r.add("latency_p90_ms", pick(&Window::p90_ms, false), "ms", note);
  std::snprintf(note, sizeof note, "(input + output bytes; %s window)", how);
  r.add("payload_MBps", pick(&Window::payload_MBps, true), "MB/s", note);
  std::snprintf(note, sizeof note, "(textbook flops; %s window)", how);
  r.add("solve_gflops", pick(&Window::gflops, true), "GFLOP/s", note);
  // Latency by call class (problem and size), for reading the mix.
  std::map<std::string, std::vector<double>> by_label;
  for (const auto& c : p.calls) {
    if (c.returned) by_label[w.deck[c.item].label].push_back(c.latency_s * 1e3);
  }
  for (auto& [label, v] : by_label) {
    std::sort(v.begin(), v.end());
    std::printf("class  %-14s n=%-6zu p50 %10.4f ms  p90 %10.4f ms\n", label.c_str(), v.size(),
                percentile(v, 0.5), percentile(v, 0.9));
  }
  if (lat_ms.size() >= 1000) {
    std::printf("info   latency_p99_ms %.6g ms %s\n", percentile(lat_ms, 0.99),
                tail_note(lat_ms.size(), 0.99).c_str());
  } else {
    std::printf("info   latency_p99_ms not reported: %zu samples, fewer than 1000\n",
                lat_ms.size());
  }
}

/// The chain of one average call: each layer's self time, which must sum to
/// the measured call time.
void report_chain(Report& r, const Phase& t) {
  const auto self = t.spans.self_seconds("netsl");
  const auto get = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  double root_total = 0.0;
  for (const auto& s : t.spans.spans()) {
    if (s.parent < 0 && t.spans.names()[s.name] == "netsl") root_total += s.end_s - s.start_s;
  }
  const double calls = static_cast<double>(t.calls.size());
  struct Row {
    const char* layer;
    double us;
  };
  const std::vector<Row> rows = {
      {"client.call_self", get("netsl")},
      {"agent.query (round trip less schedule)", get("client.query")},
      {"agent.schedule", get("agent.schedule")},
      {"net.attempt_wire (request half)", get("client.attempt")},
      {"server.queue_wait", get("server.queue_wait")},
      {"server.compute", get("server.compute")},
      {"net.result_transfer (reply half)", get("client.result_transfer")},
  };
  double sum = 0.0;
  for (const auto& row : rows) sum += row.us;
  double all_self = 0.0;
  for (const auto& [name, s] : self) all_self += s;
  std::printf("chain  self time of the average call (traced pass, %.0f calls)\n", calls);
  for (const auto& row : rows) {
    std::printf("chain    %-40s %12.2f us %6.2f%%\n", row.layer, row.us / calls * 1e6,
                100.0 * row.us / root_total);
  }
  std::printf("chain    %-40s %12.2f us\n", "sum of layers", sum / calls * 1e6);
  std::printf("chain    %-40s %12.2f us\n", "measured call time", root_total / calls * 1e6);
  const double gap = std::abs(sum - root_total) / root_total;
  char what[160];
  std::snprintf(what, sizeof what,
                "layer self times sum to the measured call time (gap %.4f%%, "
                "unlisted spans %.4f%%)",
                100.0 * gap, 100.0 * std::abs(all_self - sum) / root_total);
  r.check(gap <= 0.01 && std::abs(all_self - sum) <= 0.01 * root_total, what);
}

void report_layers(Report& r, const Phase& untraced, const Phase& t, const CounterDelta& d,
                   const std::vector<double>& ping_us, const std::vector<double>& query_us,
                   const LayerCosts& lc) {
  const double calls = static_cast<double>(t.calls.size());
  std::vector<double> queue_ms, rel_err;
  double attempts = 0.0, query_s = 0.0, schedule_s = 0.0, wire_s = 0.0, transfer_s = 0.0,
         exec_s = 0.0, latency_s = 0.0;
  for (const auto& c : t.calls) {
    attempts += c.attempts;
    query_s += c.query_s;
    schedule_s += c.schedule_s;
    wire_s += c.attempt_s - c.queue_s - c.exec_s;
    transfer_s += c.result_transfer_s;
    exec_s += c.exec_s;
    latency_s += c.latency_s;
    queue_ms.push_back(c.queue_s * 1e3);
    rel_err.push_back(std::abs(c.predicted_s - c.latency_s) / c.latency_s);
  }
  std::sort(queue_ms.begin(), queue_ms.end());
  const auto self = t.spans.self_seconds("netsl");
  const auto it = self.find("netsl");
  const double call_self = it == self.end() ? 0.0 : it->second;

  r.add("client.call_self_us", call_self / calls * 1e6, "us",
        "(call time less client.query and client.attempt spans)");
  r.add("client.attempts_per_call", attempts / calls, "count");
  r.add("agent.query_rtt_us_p50", percentile(query_us, 0.50), "us",
        "(timed NetSolveClient::query, idle cluster) " + tail_note(query_us.size(), 0.5));
  r.add("agent.query_rtt_us_p99", percentile(query_us, 0.99), "us",
        tail_note(query_us.size(), 0.99));
  r.add("agent.query_span_us", query_s / calls * 1e6, "us", "(client.query span under load)");
  r.add("agent.schedule_us", schedule_s / calls * 1e6, "us", "(agent.schedule span)");
  r.add("agent.prediction_rel_err", median(rel_err), "ratio",
        "(median |predicted - call time| / call time)");
  r.add("net.ping_rtt_us", percentile(ping_us, 0.50), "us",
        "(timed ping_agent p50) " + tail_note(ping_us.size(), 0.5));
  r.add("net.attempt_wire_us", wire_s / calls * 1e6, "us",
        "(client.attempt less server queue wait and compute)");
  r.add("net.result_transfer_us", transfer_s / calls * 1e6, "us",
        "(client.result_transfer span: the client's half-split of the wire time)");
  const double pool_total = static_cast<double>(d.pool_hits + d.pool_misses);
  char note[160];
  std::snprintf(note, sizeof note, "(%llu hits / %.0f leases, process totals)",
                static_cast<unsigned long long>(d.pool_hits), pool_total);
  r.add("net.pool_hit_ratio", pool_total > 0 ? d.pool_hits / pool_total : 0.0, "ratio", note);
  std::snprintf(note, sizeof note, "(per call, request + result, %d passes)", lc.passes);
  r.add("serial.crc32_us", lc.crc32_us, "us", note);
  r.add("serial.build_frame_us", lc.build_frame_us, "us", note);
  r.add("serial.check_payload_us", lc.check_payload_us, "us", note);
  r.add("proto.request_encode_us", lc.request_encode_us, "us");
  r.add("proto.request_decode_us", lc.request_decode_us, "us");
  r.add("proto.result_encode_us", lc.result_encode_us, "us");
  r.add("proto.result_decode_us", lc.result_decode_us, "us");
  r.add("proto.request_bytes", lc.request_bytes, "bytes", "(mean encoded SolveRequest)");
  r.add("proto.result_bytes", lc.result_bytes, "bytes", "(mean encoded SolveResult)");
  r.add("server.queue_wait_ms_p50", percentile(queue_ms, 0.50), "ms",
        "(SolveResult.queue_seconds) " + tail_note(queue_ms.size(), 0.5));
  r.add("server.queue_wait_ms_p90", percentile(queue_ms, 0.90), "ms",
        tail_note(queue_ms.size(), 0.9));
  r.add("server.compute_ms", exec_s / calls * 1e3, "ms", "(mean SolveResult.exec_seconds)");
  r.add("server.compute_share", exec_s / latency_s, "ratio", "(sum exec / sum call time)");
  std::snprintf(note, sizeof note, "(process total over the traced pass; base %zu calls)",
                t.calls.size());
  r.add("server.shed_total", static_cast<double>(d.shed), "count", note);
  r.add("linalg.execute_us", lc.execute_us, "us",
        "(single-threaded ProblemRegistry::execute, per call)");
  r.add("linalg.mflops", lc.mflops, "MFLOP/s");
  const double cps_untraced = static_cast<double>(untraced.calls.size()) / untraced.wall_s;
  const double cps_traced = calls / t.wall_s;
  std::snprintf(note, sizeof note, "(untraced %.2f vs traced %.2f calls/s)", cps_untraced,
                cps_traced);
  r.add("trace.overhead_pct", 100.0 * (cps_untraced - cps_traced) / cps_untraced, "%", note);
  std::printf("info   registry span.server.compute_s gained %llu samples for %zu calls "
              "(process-global; not used)\n",
              static_cast<unsigned long long>(d.registry_compute_spans), t.calls.size());
}

int run(const Args& args) {
  const Workload w = make_workload(args.workload, args.seed);
  print_host(w);

  LoadRunner runner(w, args.seed);
  Report report;
  Tally tally;

  // Set-up is timed several times; the last cluster stays up for the run.
  std::vector<double> setups;
  for (int i = 0; i < (args.trace ? 3 : 11); ++i) setups.push_back(runner.setup());
  const double setup_s = median(setups);

  std::vector<std::string> errors = runner.errors();
  const auto note_errors = [&](const Phase& p) {
    errors.insert(errors.end(), p.errors.begin(), p.errors.end());
  };

  // Let lazy state (pooled connections, agent load reports) settle.
  const Phase warmup = runner.run(std::min(1.0, 0.1 * args.seconds), false);
  tally.add(warmup);
  note_errors(warmup);

  if (!args.trace) {
    const Phase p = runner.run(args.seconds, false);
    tally.add(p);
    note_errors(p);
    if (p.calls.empty()) throw std::runtime_error("no call completed");
    report_end_to_end(report, w, p, setup_s, setups);
  } else {
    // The untraced and traced passes share the run's measuring time.
    const Phase untraced = runner.run(args.seconds / 2, false);
    tally.add(untraced);
    note_errors(untraced);
    const auto before = runner.scrape();
    const Phase traced = runner.run(args.seconds / 2, true);
    const auto after = runner.scrape();
    tally.add(traced);
    note_errors(traced);
    if (untraced.calls.empty() || traced.calls.empty()) {
      throw std::runtime_error("no call completed");
    }

    const auto ping_us = probe_ping(runner.client(0), 0.5, 3000);
    const auto query_us = probe_query(runner.client(0), w, 1.0, 3000);
    report.check(!ping_us.empty() && !query_us.empty(),
                 "agent ping and query probes answered");

    SpanLog micro;
    LayerCosts costs;
    const std::string bad = time_layers(w, 2.0, 3, costs, micro);
    report.check(bad.empty(), "serial/proto/linalg layers accept the workload's data" +
                                  (bad.empty() ? "" : ": " + bad));

    report_chain(report, traced);
    report_layers(report, untraced, traced, counter_delta(before, after), ping_us, query_us,
                  costs);

    if (!args.spans_out.empty()) {
      SpanLog all;
      all.append(traced.spans);
      all.append(micro);
      report.check(all.write_tsv(args.spans_out), "spans written to " + args.spans_out);
    }
  }

  for (const auto& e : errors) std::printf("error  %s\n", e.c_str());
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double peak_rss_mib = static_cast<double>(usage.ru_maxrss) / 1024.0;
  if (args.trace) {
    report.add("process.peak_rss_MiB", peak_rss_mib, "MiB", "(getrusage, whole run)");
  } else {
    std::printf("info   peak_rss %.1f MiB\n", peak_rss_mib);
  }
  std::printf("info   error_rate %.6g (%llu failed or wrong of %llu attempted)\n",
              tally.attempted ? static_cast<double>(tally.failed) / tally.attempted : 0.0,
              static_cast<unsigned long long>(tally.failed),
              static_cast<unsigned long long>(tally.attempted));
  report.check(tally.failed == 0, "every output verified");
  report.check(runner.errors().empty(), "every caller's first call verified");
  char what[128];
  std::snprintf(what, sizeof what,
                "one server span per completed call (%llu spans, %llu calls)",
                static_cast<unsigned long long>(tally.server_spans),
                static_cast<unsigned long long>(tally.returned));
  report.check(tally.server_spans == tally.returned, what);
  report.finish(tally.attempted, tally.failed);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "netsolve_perfbench: %s\n", e.what());
    return 1;
  }
}
