// Agent-side server directory.
//
// Tracks every registered computational server: what problems it offers,
// its LINPACK-style rating, its most recent workload report, client-observed
// network metrics (EWMA latency/bandwidth), and liveness. This is the state
// the load-balancing policies rank against.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.hpp"
#include "dsl/problem.hpp"
#include "net/endpoint.hpp"
#include "proto/messages.hpp"

namespace ns::agent {

/// Per-server circuit breaker state (see RegistryConfig::quarantine_s).
///   kClosed   -- healthy; requests flow normally.
///   kOpen     -- quarantined after repeated failures; no traffic until the
///                cooldown elapses.
///   kHalfOpen -- cooldown elapsed; probe traffic (agent pings and a reduced
///                share of client requests) decides between re-admission and
///                another quarantine round.
enum class BreakerState { kClosed, kOpen, kHalfOpen };

std::string_view breaker_state_name(BreakerState state) noexcept;

struct ServerRecord {
  proto::ServerId id = proto::kInvalidServerId;
  std::string name;
  net::Endpoint endpoint;
  double mflops = 0.0;

  double workload = 0.0;            // latest report (running + queued jobs)
  std::uint64_t completed = 0;      // lifetime completions (from reports)
  double last_report_time = 0.0;    // now_seconds() of last contact

  // Queue pressure piggybacked on workload reports (overload steering).
  double sojourn_p95_s = 0.0;       // p95 queue sojourn at the server
  double free_slots = -1.0;         // free worker slots (-1 = not reported)
  /// Durability from the latest workload report: 1 = journaling, 0 = journal
  /// fail-stopped (degraded), -1 = not journaling / pre-field server. The
  /// predictor de-prefers degraded servers for checkpointable work.
  int durable = -1;
  /// Memory headroom from the latest workload report: free bytes under the
  /// server's MemGovernor budget, -1 = ungoverned / pre-field server. The
  /// predictor ranks out servers that cannot fit a request's operands.
  double mem_free_bytes = -1.0;
  /// Payload-spill ternary mirroring `durable`: 1 = actively paging queued
  /// payloads to disk, 0 = spill configured and idle, -1 = off / pre-field.
  int spill_active = -1;

  // Client-observed network estimates, EWMA-updated from MetricsReports.
  double latency_s = 0.0;
  double bandwidth_Bps = 0.0;

  std::uint64_t assigned = 0;       // times this server topped a ranking
  /// Requests handed to this server since its last workload report: 1 per
  /// query answered without a lease, the slot count per lease granted. The
  /// predictor adds this to the reported workload so a burst of concurrent
  /// queries (or of leasing clients) spreads across the pool instead of
  /// dog-piling the one server that looked idle in the (slightly stale) last
  /// report.
  double pending = 0.0;
  int consecutive_failures = 0;
  bool alive = true;
  /// Server process lifetime that produced the latest registration (0 =
  /// pre-incarnation server). See proto::RegisterServer::incarnation.
  std::uint64_t incarnation = 0;

  // Circuit breaker (active only when RegistryConfig::quarantine_s > 0).
  BreakerState breaker = BreakerState::kClosed;
  double open_until = 0.0;          // now_seconds() when probes are admitted
  int open_count = 0;               // consecutive opens (cooldown backoff)
  int probe_successes = 0;          // half-open progress toward closing
  /// Multiplies the rated mflops in ranking snapshots. Re-admitted servers
  /// start reduced and earn their rating back through observed successes.
  double rating_factor = 1.0;

  std::set<std::string> problems;   // names offered
};

struct RegistryConfig {
  /// Seed values for network estimates before any client measurement.
  double default_latency_s = 0.001;
  double default_bandwidth_Bps = 100e6;
  /// EWMA weight of a new measurement.
  double ewma_alpha = 0.3;
  /// Consecutive client-reported failures before a server is marked dead.
  int max_failures = 1;
  /// A server silent for longer than this is considered dead at query time;
  /// <= 0 disables expiry.
  double report_timeout_s = 0.0;

  // ---- circuit breaker ----
  /// Base quarantine cooldown after the breaker opens; 0 disables the
  /// breaker entirely (legacy behavior: a dead server stays dead until it
  /// re-registers).
  double quarantine_s = 0.0;
  /// Cooldown multiplier per consecutive re-open (exponential), capped at
  /// quarantine_max_s.
  double quarantine_backoff = 2.0;
  double quarantine_max_s = 5.0;
  /// Successful probes required in half-open before the breaker closes.
  int probes_to_close = 2;
  /// Rating multiplier applied while half-open and on re-admission; each
  /// client-reported success recovers it toward 1 (see rating_recovery).
  double readmit_rating_factor = 0.5;
  /// Per-success recovery step: factor += step * (1 - factor).
  double rating_recovery = 0.25;
};

/// A lease asked for with a query (see ServerRegistry::record_assignment).
struct LeaseRequest {
  std::uint64_t client_id = 0;  // 0 = anonymous: never counts as a holder
  std::uint32_t slots = 0;
  double expires_at = 0.0;      // now_seconds() when the lease would end
};

class ServerRegistry {
 public:
  explicit ServerRegistry(RegistryConfig config = {}) : config_(config) {}

  /// Add (or re-add) a server; returns its id. A returning server (same
  /// name + endpoint) keeps its id. A registration with a NEW incarnation is
  /// a process restart and fully revives the record (breaker reset); the
  /// SAME incarnation is a periodic keep-alive refresh — it updates the
  /// rating/problem set and proves liveness, but with the circuit breaker
  /// active it cannot bust an open quarantine (the failures were observed on
  /// the client path; the server refreshing itself says nothing about them).
  proto::ServerId add(const proto::RegisterServer& reg);

  /// Apply a workload report. Unknown ids are ignored (stale reports from a
  /// server the agent already dropped).
  void update_workload(const proto::WorkloadReport& report);

  /// Server announced it is draining (graceful shutdown): drop it from
  /// rankings immediately. The record stays, marked dead with a fresh
  /// timestamp, so federation sync propagates the deadness instead of
  /// letting a stale peer entry resurrect it; a registration from a new
  /// incarnation fully revives it. Returns false for unknown ids.
  bool deregister(proto::ServerId id);

  /// Client reported a failed interaction; marks the server dead once
  /// consecutive failures reach the configured threshold.
  void record_failure(proto::ServerId id);

  /// Client reported a successful transfer of `bytes` in `seconds`; folds
  /// the implied bandwidth into the EWMA estimates and clears the failure
  /// streak.
  void record_metrics(proto::ServerId id, std::uint64_t bytes, double seconds);

  /// Charge the server that topped a ranking: bump "assigned" (the
  /// round-robin state) and its pending count. With `lease`, asks to lease
  /// its slot count of in-flight calls to its client. The lease is granted
  /// when the server's last report showed free worker slots beyond its
  /// pending count, or when the client already holds a live lease there
  /// (its slot is claimed: one caller's leases on several lists share it).
  /// A grant charges pending with the slot count instead of 1. Returns
  /// whether the lease was granted.
  bool record_assignment(proto::ServerId id, const LeaseRequest* lease = nullptr);

  /// Quarantined servers whose cooldown has elapsed (transitioning them to
  /// half-open). The agent's ping loop probes these actively so a recovered
  /// server is re-admitted even when healthy peers absorb all client
  /// traffic.
  std::vector<ServerRecord> probe_candidates();

  /// Outcome of a half-open probe: enough successes close the breaker
  /// (re-admitting the server at a reduced rating); a failure re-arms the
  /// quarantine with a longer cooldown.
  void record_probe(proto::ServerId id, bool success);

  /// Snapshot of alive servers offering `problem` (expiring stale ones if a
  /// report timeout is configured).
  std::vector<ServerRecord> candidates_for(const std::string& problem);

  /// Snapshot of everything (tests, stats, CLI).
  std::vector<ServerRecord> all();

  std::optional<ServerRecord> find(proto::ServerId id);

  /// The union problem catalogue with each problem's spec (first
  /// registration of a name wins; specs are expected identical across
  /// servers, as in the original system's shared description files).
  std::vector<dsl::ProblemSpec> catalog();
  std::optional<dsl::ProblemSpec> problem_spec(const std::string& name);

  std::size_t alive_count();

  // ---- federation ----

  /// Snapshot the registry as sync entries for peer agents. Each entry's
  /// age is now - last contact, so the receiver can judge freshness.
  std::vector<proto::SyncEntry> snapshot_for_sync();

  /// Merge one peer entry: unknown servers are added (with a local id);
  /// known servers are updated only if the entry is fresher than local
  /// state. Returns true if the entry was applied.
  bool apply_sync(const proto::SyncEntry& entry);

 private:
  void expire_stale_locked();
  bool breaker_enabled() const noexcept { return config_.quarantine_s > 0.0; }
  /// Move due kOpen records to kHalfOpen (no-op when the breaker is off).
  void tick_breakers_locked();
  /// Open (or re-arm) the quarantine for a failing server.
  void open_breaker_locked(ServerRecord& record, bool escalate);
  /// One half-open success; closes the breaker at the configured count.
  void probe_success_locked(ServerRecord& record);

  RegistryConfig config_;
  std::mutex mu_;
  std::map<proto::ServerId, ServerRecord> servers_;
  std::map<std::string, dsl::ProblemSpec> specs_;
  /// Per server: client id -> expiry of that client's latest lease there.
  std::map<proto::ServerId, std::map<std::uint64_t, double>> lessees_;
  proto::ServerId next_id_ = 1;
};

}  // namespace ns::agent
