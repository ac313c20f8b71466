// Closed-loop runner: an in-process TestCluster, one NetSolveClient per
// caller thread, each caller issuing its next netsl call only after the
// previous one returned.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "client/client.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "deck.hpp"
#include "spans.hpp"
#include "testkit/cluster.hpp"

namespace perfbench {

/// One netsl call as the caller saw it. Server-side timings come from the
/// call's own SolveResult (via CallStats), never from the process-global
/// span.* registry histograms.
struct CallRecord {
  std::uint32_t item = 0;
  bool returned = false;  // netsl returned outputs
  bool verified = false;  // ... and they passed the item's check
  double end_s = 0.0;      // return time, seconds since the phase started
  double latency_s = 0.0;  // caller-observed wall time around netsl
  double predicted_s = 0.0;
  double exec_s = 0.0;
  double queue_s = 0.0;
  double query_s = 0.0;     // client.query span
  double schedule_s = 0.0;  // agent.schedule span
  double attempt_s = 0.0;   // winning client.attempt span
  double result_transfer_s = 0.0;
  int attempts = 0;
  int server_spans = 0;  // server.compute spans the call carried
  std::uint64_t payload_bytes = 0;  // input + output bytes
};

struct Phase {
  std::vector<CallRecord> calls;
  double wall_s = 0.0;  // phase start to the last call's return
  SpanLog spans;        // traced phases only
  std::vector<std::string> errors;  // first few failure descriptions
};

/// Counter deltas over a phase, scraped over the wire (METRICS_QUERY). The
/// registry is process-global, so these are process totals: every server,
/// agent and client of the in-process cluster together.
struct CounterDelta {
  std::uint64_t pool_hits = 0;
  std::uint64_t pool_misses = 0;
  std::uint64_t shed = 0;                 // every server-side shed/reject path
  std::uint64_t registry_compute_spans = 0;  // span.server.compute_s samples
};

CounterDelta counter_delta(const ns::metrics::Snapshot& before,
                           const ns::metrics::Snapshot& after);

class LoadRunner {
 public:
  /// `seed` orders each caller's walk through the deck.
  LoadRunner(const Workload& workload, std::uint64_t seed);
  ~LoadRunner();
  LoadRunner(const LoadRunner&) = delete;
  LoadRunner& operator=(const LoadRunner&) = delete;

  /// Start the cluster and the callers, and wait until every caller's first
  /// call returned. Returns the elapsed seconds, from the start of
  /// TestCluster::start to the last first-call return. Replaces any cluster
  /// a previous setup() left running. First-call failures land in errors().
  double setup();

  /// Run every caller closed-loop for `seconds`; with `traced`, record each
  /// call's span tree. Call ids continue across phases.
  Phase run(double seconds, bool traced);

  /// Scrape the process metrics registry through the agent's endpoint.
  ns::metrics::Snapshot scrape() const;

  ns::testkit::TestCluster& cluster() { return *cluster_; }
  ns::client::NetSolveClient& client(std::size_t i) { return *clients_.at(i); }
  const std::vector<std::string>& errors() const noexcept { return errors_; }

 private:
  void teardown();
  /// Caller i's next deck index. Each caller walks the whole deck once per
  /// cycle, in an order drawn afresh every cycle, so the callers do not lock
  /// into one repeating pattern of concurrent calls. The draw spreads every
  /// class (same label) evenly through the cycle, so the calls made by any
  /// point of a cycle are close to the deck's mix.
  std::uint32_t next_item(std::size_t i);

  const Workload& workload_;
  std::unique_ptr<ns::testkit::TestCluster> cluster_;
  std::vector<std::unique_ptr<ns::client::NetSolveClient>> clients_;
  std::uint64_t seed_;
  struct Walk {
    ns::Rng rng;
    std::vector<std::uint32_t> order;
    std::size_t pos = 0;
  };
  std::vector<Walk> walks_;  // one per caller
  std::vector<std::vector<std::uint32_t>> classes_;  // deck indices by label
  std::uint64_t next_call_ = 0;
  std::vector<std::string> errors_;
};

}  // namespace perfbench
