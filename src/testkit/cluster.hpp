// In-process NetSolve cluster orchestration.
//
// Starts one or more agents (a federated full mesh when agent_count > 1)
// plus N computational servers (each on its own ephemeral loopback port,
// with its own threads) inside the current process — the "multi-process
// evaluation on one machine" shape of the reproduction, with process
// isolation traded for deterministic startup/teardown in tests and benches.
// The standalone binaries under examples/standalone/ provide the true
// multi-process deployment.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "agent/agent.hpp"
#include "client/client.hpp"
#include "common/error.hpp"
#include "common/memgov.hpp"
#include "common/vfs.hpp"
#include "net/fault.hpp"
#include "server/server.hpp"

namespace ns::testkit {

struct ClusterServerSpec {
  std::string name;
  /// Emulated relative speed in (0, 1]; 1 = full host speed.
  double speed = 1.0;
  server::SlowdownMode slowdown_mode = server::SlowdownMode::kSpin;
  int workers = 2;
  int max_queue = 0;  // admission control (0 = queue without bound)
  double report_period_s = 0.05;
  double report_threshold = 0.0;
  double background_load = 0.0;
  net::LinkShape link;  // server->client reply shaping
  server::FailureSpec failure;
  /// Offer only these problems (empty = the full catalogue).
  std::vector<std::string> problems;
  /// Background re-registration period (jittered server-side). Non-zero by
  /// default so a restarted agent re-learns the pool without intervention.
  double reregister_period_s = 0.5;
  /// Overload-control knobs (EDF ordering, admission/dequeue deadline sheds,
  /// CoDel sojourn shedder, per-client quotas, AIMD concurrency) so tests and
  /// benches can script overload scenarios per server. Survives
  /// restart_server().
  server::AdmissionConfig admission;
  /// Durable-jobs data directory (empty = journaling off). With a data dir,
  /// the server write-ahead journals every job and restart_server() /
  /// crash_server()+restart_server() replays it: queued jobs re-enqueue and
  /// started jobs resume from their last checkpoint. Survives restart.
  std::string data_dir;
  /// Kernel checkpoint interval in iterations (simwork/busywork: Mflop).
  std::uint64_t checkpoint_interval = 25;
  /// fsync the journal on every append (tests may turn it off for speed).
  bool journal_fsync = true;
  /// On drain, hand running jobs (with their checkpoints) to agent-ranked
  /// peers via JOB_TRANSFER instead of plainly cancelling them.
  bool migrate_on_drain = false;
  /// Transport hostile-peer armor for this server (frame cap, buffer
  /// budgets, progress deadline, connection cap). Survives restart_server().
  net::GuardConfig guard;
  /// Checkpoint replication peers, by index into ClusterConfig::servers.
  /// Resolved to endpoints when this server (re)starts. At initial start only
  /// lower-indexed servers are bound yet, so order specs so replica targets
  /// come first (the replicating server last); restart_server() resolves any
  /// index. Unresolvable indices are skipped with a warning.
  std::vector<std::size_t> replicas;
  /// Delta/RLE-compress replicated checkpoint frames (see common/bytepack.hpp).
  bool checkpoint_compress = true;
  /// Memory governance for this server: payload/working-set budgets, spill
  /// directory, replica-store byte cap (see common/memgov.hpp). Defaults to
  /// ungoverned. Survives restart_server().
  mem::MemBudgetConfig mem;
};

struct ClusterConfig {
  std::string policy = "mct";
  std::vector<ClusterServerSpec> servers;
  /// Agents to spawn. With more than one they form a federated full mesh
  /// (peer snapshot sync + anti-entropy bootstrap), every server registers
  /// with all of them, and make_client() clients fail over down the list.
  std::size_t agent_count = 1;
  /// Federation snapshot exchange period for multi-agent clusters.
  double agent_sync_period_s = 0.05;
  /// Native Mflop rating shared by all servers; 0 measures the host once.
  double rating_base = 0.0;
  agent::RegistryConfig registry;
  /// Agent-side liveness ping period (0 = off).
  double ping_period_s = 0.0;
  /// Predictor counts unreported assignments (the E9 ablation toggle).
  bool count_pending = true;
  /// Agent lease length on ranked lists (AgentConfig::lease_s; 0 = off).
  double lease_s = 0.1;
  /// Default shaping for clients created via make_client().
  net::LinkShape client_link;
  double io_timeout_s = 30.0;
  /// Per-call deadline budget for make_client() clients (0 = none). With a
  /// budget, clients retry until it expires and stamp the remaining budget
  /// into every SolveRequest (servers shed expired work).
  double client_deadline_s = 0.0;
  /// Hedge delay for make_client() clients (0 = hedging off). See
  /// ClientConfig::hedge_delay_s: static fallback until the per-problem
  /// latency histogram warms up, then its hedge_quantile drives the delay.
  double client_hedge_delay_s = 0.0;
  double client_hedge_quantile = 0.95;
  std::uint64_t client_hedge_min_samples = 20;
  /// Reattach budget for make_client() clients (0 = off). See
  /// ClientConfig::reattach_s: on a mid-call transport loss the client polls
  /// PROBE at the same server instead of resubmitting, so a crash-restarted
  /// journaling server finishes the original job.
  double client_reattach_s = 0.0;
  /// make_client() clients stamp require_durable into every SolveRequest
  /// (degraded / non-journaling servers shed them retryably).
  bool client_require_durable = false;
  /// make_client() clients chase replicated checkpoints after a dead-server
  /// reattach fails (CHECKPOINT_FETCH adopt; see ClientConfig).
  bool client_checkpoint_failover = false;
  /// Transport armor for the agents (metadata-role defaults). Survives
  /// restart_agent().
  net::GuardConfig agent_guard = net::GuardConfig::agent_defaults();
};

class TestCluster {
 public:
  /// Start the agent and all servers; blocks until every server has
  /// registered and delivered its first workload report.
  static Result<std::unique_ptr<TestCluster>> start(ClusterConfig config);

  ~TestCluster();
  TestCluster(const TestCluster&) = delete;
  TestCluster& operator=(const TestCluster&) = delete;

  /// The primary (first) agent. Asserts it has not been killed.
  agent::Agent& agent() noexcept { return *agents_.front(); }
  agent::Agent& agent(std::size_t i) { return *agents_.at(i); }
  std::size_t agent_count() const noexcept { return agents_.size(); }
  /// Endpoints stay valid (and stable) across kill_agent/restart_agent.
  net::Endpoint agent_endpoint() const { return agent_endpoints_.front(); }
  net::Endpoint agent_endpoint(std::size_t i) const { return agent_endpoints_.at(i); }
  bool agent_alive(std::size_t i) const { return agents_.at(i) != nullptr; }

  std::size_t server_count() const noexcept { return servers_.size(); }
  server::ComputeServer& server(std::size_t i) { return *servers_.at(i); }

  /// A client wired to this cluster's agent (link defaults to the cluster's
  /// client_link).
  client::NetSolveClient make_client() const;
  client::NetSolveClient make_client(const net::LinkShape& link) const;

  /// The native (speed=1) rating the servers were calibrated against.
  double rating_base() const noexcept { return rating_base_; }

  // ---- observability (see common/metrics.hpp) ----

  /// Scrape the metrics registry over the wire via METRICS_QUERY. In this
  /// in-process cluster every component shares one registry, so both calls
  /// see the same data — what differs is the path exercised (agent vs server
  /// connection handler) and, for the agent, the per-server directory gauges
  /// refreshed at scrape time.
  Result<metrics::Snapshot> scrape_agent_metrics(const std::string& prefix = {}) const;
  Result<metrics::Snapshot> scrape_server_metrics(std::size_t i,
                                                  const std::string& prefix = {}) const;

  // ---- chaos scripting (see net/fault.hpp) ----

  /// Arm a fault plan on server i's link: faults hit traffic dialed to the
  /// server AND its replies (the transport resolves the link by peer or
  /// local endpoint).
  void arm_fault(std::size_t i, net::FaultPlan plan);
  /// Arm a fault plan on the agent's link (anything dialing the agent).
  void arm_agent_fault(net::FaultPlan plan);
  /// Remove every armed fault plan process-wide.
  void disarm_faults();

  /// Arm a storage fault plan on server i's data_dir (see common/vfs.hpp):
  /// ENOSPC, torn writes, fsync EIO, compaction crash windows, bit rot —
  /// everything the journal must survive or degrade through. The server must
  /// have a data_dir (journaling on).
  void arm_storage_fault(std::size_t i, vfs::StorageFaultPlan plan);
  /// Remove every armed storage fault plan (and the emulated-crash freeze).
  void disarm_storage_faults();

  /// Arm an allocation fault plan (see common/memgov.hpp): scripted
  /// std::bad_alloc at named trip points (frame reads, request decode,
  /// execute, spill save/reload). Process-global, like storage faults.
  void arm_alloc_fault(mem::AllocFaultPlan plan);
  /// Remove every armed allocation fault rule.
  void disarm_alloc_faults();

  /// Gracefully drain server i (the rolling-restart chaos hook): it stops
  /// accepting work, deregisters from every agent, and finishes or cancels
  /// its queue within `deadline_s` (0 = the server's io timeout). Sent over
  /// the wire (DRAIN message) like an operator would; returns the ack.
  Result<proto::DrainAck> drain_server(std::size_t i, double deadline_s = 0.0);

  /// Hard-kill server i: listener closed, all connections dropped — the
  /// in-process stand-in for SIGKILL. The agent only learns via failed
  /// pings / client reports / report expiry.
  void kill_server(std::size_t i);
  /// Unclean death of server i: like kill_server but nothing cooperative
  /// happens first — the journal fd is dropped without flush or compaction,
  /// in-flight kernels are abandoned mid-iteration, and no terminal records
  /// are written. The closest an in-process cluster gets to SIGKILL; pair
  /// with restart_server() to exercise journal replay.
  void crash_server(std::size_t i);
  /// Restart a killed server on its old endpoint; the agent revives the
  /// record by name+endpoint when the new incarnation registers.
  Status restart_server(std::size_t i);

  /// Hard-kill agent i: listener closed, threads joined, the object
  /// destroyed. Clients and servers only notice refused connections.
  void kill_agent(std::size_t i);
  /// Restart a killed agent on its old endpoint with the same peer mesh; it
  /// warms its registry from live peers (anti-entropy bootstrap) and from
  /// server re-registrations.
  Status restart_agent(std::size_t i);

  /// Stop everything (idempotent; also run by the destructor).
  void stop();

 private:
  TestCluster() = default;

  agent::AgentConfig agent_config_for(std::size_t i) const;
  /// Server i's config from its spec, less listen address, replicas and seed.
  server::ServerConfig server_config_for(std::size_t i) const;

  ClusterConfig config_;
  double rating_base_ = 0.0;
  std::vector<std::unique_ptr<agent::Agent>> agents_;  // null = killed
  std::vector<net::Endpoint> agent_endpoints_;
  std::vector<std::unique_ptr<server::ComputeServer>> servers_;
};

/// Convenience spec builders for the common experiment pools.

/// `count` identical full-speed servers.
std::vector<ClusterServerSpec> uniform_pool(std::size_t count, int workers = 2);

/// Heterogeneous pool with speeds descending by powers of two:
/// 1, 1/2, 1/4, ... (the 8:4:2:1 pool of the load-balancing experiment).
std::vector<ClusterServerSpec> power_of_two_pool(std::size_t count, int workers = 2);

}  // namespace ns::testkit
