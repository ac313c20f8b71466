// NetSolve wire protocol.
//
// One message per frame (see serial/frame.hpp). Three conversations exist:
//   server <-> agent : RegisterServer/RegisterAck, WorkloadReport,
//                      DeregisterServer, Shutdown
//   client <-> agent : Query/ServerList, ListProblems/ProblemCatalog,
//                      FailureReport, MetricsReport
//   client <-> server: SolveRequest/SolveResult, CancelRequest/CancelAck,
//                      DrainRequest/DrainAck, ProbeRequest/ProbeReply,
//                      Ping/Pong
//   server <-> server: JobTransfer/TransferAck (drain-time job migration)
//
// Every message type has encode()/decode() against the portable codec; the
// decode side never trusts the peer (bounds, tags and enum ranges are
// validated).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "dsl/problem.hpp"
#include "dsl/value.hpp"
#include "net/endpoint.hpp"
#include "serial/codec.hpp"

namespace ns::proto {

enum class MessageType : std::uint16_t {
  kRegisterServer = 1,
  kRegisterAck = 2,
  kWorkloadReport = 3,
  kQuery = 4,
  kServerList = 5,
  kSolveRequest = 6,
  kSolveResult = 7,
  kFailureReport = 8,
  kMetricsReport = 9,
  kListProblems = 10,
  kProblemCatalog = 11,
  kPing = 12,
  kPong = 13,
  kShutdown = 14,
  kErrorReply = 15,
  kAgentStatsRequest = 16,
  kAgentStatsReply = 17,
  kSyncState = 18,
  kMetricsQuery = 19,
  kMetricsDump = 20,
  kSyncPull = 21,
  kCancelRequest = 22,
  kCancelAck = 23,
  kDrainRequest = 24,
  kDrainAck = 25,
  kDeregisterServer = 26,
  kProbeRequest = 27,
  kProbeReply = 28,
  kJobTransfer = 29,
  kTransferAck = 30,
  kCheckpointPut = 31,
  kCheckpointPutAck = 32,
  kCheckpointFetch = 33,
  kCheckpointFetchReply = 34,
};

using ServerId = std::uint32_t;
inline constexpr ServerId kInvalidServerId = 0;

// ---- server -> agent ----

struct RegisterServer {
  std::string server_name;
  net::Endpoint endpoint;          // where clients reach this server
  double mflops = 0.0;             // LINPACK-style rating
  std::vector<dsl::ProblemSpec> problems;
  /// Identifies one server process lifetime (0 = unknown). A registration
  /// carrying a NEW incarnation is a restart and fully revives the record
  /// (circuit breaker reset); the SAME incarnation is a periodic keep-alive
  /// refresh, which proves liveness but cannot bust a quarantine — the
  /// failures were observed on the client path, which a self-refresh says
  /// nothing about.
  std::uint64_t incarnation = 0;

  void encode(serial::Encoder& enc) const;
  static Result<RegisterServer> decode(serial::Decoder& dec);
};

struct RegisterAck {
  ServerId server_id = kInvalidServerId;
  /// The acknowledging agent's federated peers. Servers merge these into
  /// their agent pool so a server pointed at one agent of a mesh learns the
  /// rest of the mesh from the handshake.
  std::vector<net::Endpoint> peer_agents;

  void encode(serial::Encoder& enc) const;
  static Result<RegisterAck> decode(serial::Decoder& dec);
};

struct WorkloadReport {
  ServerId server_id = kInvalidServerId;
  double workload = 0.0;           // running + queued jobs (plus background)
  std::uint64_t completed = 0;     // lifetime completed request count
  /// Queue-pressure piggyback (overload control): recent p95 of the time
  /// jobs spent waiting for a worker slot. Lets the agent steer around a
  /// saturated server before it starts shedding. Trailing optional field —
  /// reports from older servers decode with 0.
  double sojourn_p95_s = 0.0;
  /// Worker slots currently free (concurrency limit - running). Trailing
  /// optional field; -1 means "unknown" (an old peer that never sent it).
  double free_slots = -1.0;
  /// Durability health, ternary. 1 = journaling and healthy; 0 = the journal
  /// fail-stopped (disk fault) and the server runs explicitly non-durable;
  /// -1 = not journaling at all / old peer that never sent the field. The
  /// agent de-prefers durable=0 servers for checkpointable work. Trailing
  /// optional field.
  int durable = -1;
  /// Free memory headroom in bytes under the server's MemGovernor budget.
  /// -1 = ungoverned / old peer that never sent the field. The predictor
  /// ranks out servers whose headroom cannot fit a job's operands. Trailing
  /// optional field.
  double mem_free_bytes = -1.0;
  /// Payload spill ternary, mirroring `durable`: 1 = payloads currently
  /// parked on disk (the server is paging — slower but alive), 0 = spill
  /// configured and idle, -1 = spill off / old peer. Trailing optional
  /// field.
  int spill_active = -1;

  void encode(serial::Encoder& enc) const;
  static Result<WorkloadReport> decode(serial::Decoder& dec);
};

// ---- client -> agent ----

struct Query {
  std::string problem;
  std::uint64_t input_bytes = 0;   // serialized input size (network term)
  std::uint64_t output_bytes = 0;  // estimated reply size
  std::uint64_t size_hint = 1;     // N for the complexity model
  std::uint32_t max_candidates = 8;
  /// Trace id of the client call this query schedules for (0 = untraced);
  /// the agent tags its scheduling-decision span with it.
  std::uint64_t trace_id = 0;
  /// The asking client (SolveRequest::client_id), so the agent claims a
  /// server's free slot once per leasing client, not once per leased list.
  /// Trailing-optional, written only when set: 0 = anonymous.
  std::uint64_t client_id = 0;

  void encode(serial::Encoder& enc) const;
  static Result<Query> decode(serial::Decoder& dec);
};

struct ServerCandidate {
  ServerId server_id = kInvalidServerId;
  std::string server_name;
  net::Endpoint endpoint;
  double predicted_seconds = 0.0;  // agent's completion-time estimate

  void encode(serial::Encoder& enc) const;
  static Result<ServerCandidate> decode(serial::Decoder& dec);
};

struct ServerList {
  std::vector<ServerCandidate> candidates;  // best first
  /// How long the agent's ranking decision took — the "agent schedule" hop
  /// of the request trace, measured where it happens and carried back so
  /// the client can place it inside its query span.
  double schedule_seconds = 0.0;
  /// Lease on the ranked list (the bound function handle): the client may
  /// reuse `candidates` without asking again for up to `lease_seconds`,
  /// `lease_calls` calls, with at most `lease_slots` of them in flight at
  /// once. A trailing-optional group, written only when a lease is granted,
  /// so a lease-less list keeps its pre-lease bytes and an older agent's
  /// reply decodes as "no lease".
  double lease_seconds = 0.0;
  std::uint32_t lease_calls = 0;
  std::uint32_t lease_slots = 0;

  bool has_lease() const noexcept {
    return lease_seconds > 0.0 && lease_calls > 0 && lease_slots > 0;
  }

  void encode(serial::Encoder& enc) const;
  static Result<ServerList> decode(serial::Decoder& dec);
};

struct FailureReport {
  ServerId server_id = kInvalidServerId;
  std::uint16_t error_code = 0;    // ns::ErrorCode observed by the client

  void encode(serial::Encoder& enc) const;
  static Result<FailureReport> decode(serial::Decoder& dec);
};

/// Client-observed transfer metrics, folded into the agent's per-server
/// latency/bandwidth estimates (EWMA).
struct MetricsReport {
  ServerId server_id = kInvalidServerId;
  std::uint64_t bytes = 0;
  double transfer_seconds = 0.0;

  void encode(serial::Encoder& enc) const;
  static Result<MetricsReport> decode(serial::Decoder& dec);
};

struct ProblemCatalog {
  std::vector<dsl::ProblemSpec> problems;

  void encode(serial::Encoder& enc) const;
  static Result<ProblemCatalog> decode(serial::Decoder& dec);
};

// ---- client -> server ----

struct SolveRequest {
  std::uint64_t request_id = 0;
  std::string problem;
  std::vector<dsl::DataObject> args;
  /// Remaining client deadline budget, in seconds, measured at send time
  /// (0 = no deadline). Servers shed work whose budget has already lapsed
  /// instead of computing an answer nobody is waiting for.
  double deadline_s = 0.0;
  /// Trace id carried across the client -> server hop so both processes'
  /// span logs correlate (0 = untraced).
  std::uint64_t trace_id = 0;
  /// Stable identity of the submitting client process, used by the server's
  /// per-client fair-share accounting: when the queue is contended, no
  /// client may hold more than its quota of waiting slots. Trailing optional
  /// field; 0 (old peers) is exempt from quota enforcement.
  std::uint64_t client_id = 0;
  /// The client insists on write-ahead durability for this job. A server
  /// whose journal has fail-stopped (degraded to non-durable) sheds such
  /// requests retryably instead of accepting work it cannot protect.
  /// Trailing optional field; false from old peers.
  bool require_durable = false;

  void encode(serial::Encoder& enc) const { encode(enc, args); }
  /// The wire layout with the arguments passed in, so a client encodes each
  /// attempt straight from its caller's arguments instead of copying them
  /// into `args` first.
  void encode(serial::Encoder& enc, const std::vector<dsl::DataObject>& with_args) const;
  static Result<SolveRequest> decode(serial::Decoder& dec);
};

struct SolveResult {
  std::uint64_t request_id = 0;
  std::uint16_t error_code = 0;    // 0 == success
  std::string error_message;
  std::vector<dsl::DataObject> outputs;
  double exec_seconds = 0.0;       // pure compute time on the server
  /// Time the request waited for a worker slot before computing — the
  /// "server queue wait" hop of the request trace.
  double queue_seconds = 0.0;
  /// Cooperative backpressure: on retryable rejections (queue full, quota
  /// exceeded, CoDel/deadline shed, draining) the server's estimate of when
  /// a slot will be free. Clients fold it into their backoff, clamped to the
  /// remaining deadline budget. Trailing optional field; 0 = no hint.
  double retry_after_s = 0.0;
  /// Where the job went when it was migrated off this server mid-drain
  /// (error_code == kMigrated): the client re-attaches there with a PROBE
  /// instead of restarting the solve. Trailing optional pair; an empty host
  /// with port 0 means "not migrated".
  std::string migrated_host;
  std::uint16_t migrated_port = 0;

  void encode(serial::Encoder& enc) const;
  static Result<SolveResult> decode(serial::Decoder& dec);
};

/// Cross-server cancellation: stop working on `request_id` (a hedged
/// attempt lost the race, or a drain deadline lapsed). Queued jobs are
/// dropped before compute; in-flight jobs trip their cancellation token and
/// unwind at the next kernel checkpoint. The original SolveRequest
/// connection receives a SolveResult carrying kCancelled either way.
struct CancelRequest {
  std::uint64_t request_id = 0;

  void encode(serial::Encoder& enc) const;
  static Result<CancelRequest> decode(serial::Decoder& dec);
};

/// What the server found when the cancel arrived. kCompleted covers both
/// "already answered" and "never seen" — either way there is nothing left
/// to stop.
enum class CancelOutcome : std::uint8_t { kCompleted = 0, kQueued = 1, kRunning = 2 };

struct CancelAck {
  std::uint64_t request_id = 0;
  CancelOutcome outcome = CancelOutcome::kCompleted;

  void encode(serial::Encoder& enc) const;
  static Result<CancelAck> decode(serial::Decoder& dec);
};

/// Graceful drain: stop admitting work, let the queue finish (or cancel it
/// once `deadline_s` lapses), and deregister from every agent. The ack
/// snapshots the queue at drain start; completion is observable via the
/// server.draining/server.drained gauges or the daemon exiting.
struct DrainRequest {
  /// Budget for in-flight/queued work to finish before it is cancelled
  /// (0 = use the server's io timeout).
  double deadline_s = 0.0;

  void encode(serial::Encoder& enc) const;
  static Result<DrainRequest> decode(serial::Decoder& dec);
};

struct DrainAck {
  /// True if this message started the drain; false if one was already
  /// running (the request is idempotent either way).
  bool started = false;
  std::uint32_t running = 0;  // jobs computing at drain start
  std::uint32_t queued = 0;   // jobs waiting for a worker slot

  void encode(serial::Encoder& enc) const;
  static Result<DrainAck> decode(serial::Decoder& dec);
};

/// server -> agent: forget me now (sent to every registered agent when a
/// drain starts, so traffic is steered away immediately instead of waiting
/// for report expiry or client failure reports).
struct DeregisterServer {
  ServerId server_id = kInvalidServerId;

  void encode(serial::Encoder& enc) const;
  static Result<DeregisterServer> decode(serial::Decoder& dec);
};

// ---- durable jobs (probe / migration) ----

/// Where a job sits in the server's lifecycle, as reported by PROBE.
/// kUnknown covers ids the server has never journaled (or whose terminal
/// record has been compacted away).
enum class JobState : std::uint8_t {
  kUnknown = 0,
  kQueued = 1,
  kRunning = 2,
  kCompleted = 3,
  kFailed = 4,
};

/// The paper's netslpr/netslwt: ask a server how request_id is doing.
/// With `fetch_result`, a terminal job's stored SolveResult rides back in
/// the reply — this is how a client re-attaches to a job that finished
/// while the original connection was down (server restart, migration).
struct ProbeRequest {
  std::uint64_t request_id = 0;
  bool fetch_result = false;

  void encode(serial::Encoder& enc) const;
  static Result<ProbeRequest> decode(serial::Decoder& dec);
};

struct ProbeReply {
  std::uint64_t request_id = 0;
  JobState state = JobState::kUnknown;
  /// Live progress published by the kernel's checkpoint token (0 when the
  /// job has not started or the kernel does not report progress).
  std::uint64_t iteration = 0;
  double residual = 0.0;
  /// Terminal result, present only when requested and available. Carried as
  /// a nested blob because SolveResult has trailing optional fields of its
  /// own and must be framed to stay self-delimiting.
  bool has_result = false;
  SolveResult result;

  void encode(serial::Encoder& enc) const;
  static Result<ProbeReply> decode(serial::Decoder& dec);
};

/// server -> server: hand over a running (or queued) job during drain. The
/// receiver admits it like a fresh SolveRequest but seeds its checkpoint
/// token from the carried snapshot, so the kernel resumes mid-iteration
/// instead of starting over. The SolveRequest travels as a framed blob
/// (trailing-optional fields again).
struct JobTransfer {
  SolveRequest request;
  /// Remaining deadline budget measured at hand-off (0 = none).
  double deadline_remaining_s = 0.0;
  std::uint64_t checkpoint_iteration = 0;
  double checkpoint_residual = 0.0;
  serial::Bytes checkpoint_state;
  std::string from_server;

  void encode(serial::Encoder& enc) const;
  static Result<JobTransfer> decode(serial::Decoder& dec);
};

struct TransferAck {
  std::uint64_t request_id = 0;
  bool accepted = false;
  std::string reason;  // why the transfer was refused (empty when accepted)

  void encode(serial::Encoder& enc) const;
  static Result<TransferAck> decode(serial::Decoder& dec);
};

/// server -> server: stream one checkpoint frame to a replica holder so a
/// crash (not a drain) of the origin loses at most one checkpoint interval.
/// `frame` is a bytepack frame — raw, compressed-full, or compressed-delta
/// against the origin's last full frame this peer acknowledged
/// (base_iteration). The first PUT for a job carries the SolveRequest (as a
/// framed blob, like JobTransfer) so the replica can re-run it standalone.
struct CheckpointPut {
  std::string origin;  // origin server name (replica store key half)
  std::uint64_t request_id = 0;
  /// Remaining deadline budget measured at send time (0 = none).
  double deadline_remaining_s = 0.0;
  std::uint64_t iteration = 0;
  double residual = 0.0;
  /// Iteration of the base snapshot a delta frame applies to (0 = the frame
  /// is self-contained).
  std::uint64_t base_iteration = 0;
  serial::Bytes frame;
  bool has_request = false;
  SolveRequest request;  // framed blob on the wire (trailing-optional fields)

  void encode(serial::Encoder& enc) const;
  static Result<CheckpointPut> decode(serial::Decoder& dec);
};

struct CheckpointPutAck {
  std::uint64_t request_id = 0;
  bool accepted = false;
  /// Refusal reason; "need full" asks the origin to resend a self-contained
  /// frame (the replica lacks the delta's base, e.g. after its own restart).
  std::string reason;

  void encode(serial::Encoder& enc) const;
  static Result<CheckpointPutAck> decode(serial::Decoder& dec);
};

/// client/server -> replica holder: look up (and optionally adopt) the
/// replicated checkpoint of a job whose origin server crashed. With
/// adopt=true the replica re-admits the job exactly like a JOB_TRANSFER —
/// journals it, seeds the kernel from the replicated snapshot, and the
/// caller then WAITs on the replica for the result.
struct CheckpointFetch {
  std::uint64_t request_id = 0;
  std::string origin;  // "" = any origin holding this request id
  bool adopt = false;

  void encode(serial::Encoder& enc) const;
  static Result<CheckpointFetch> decode(serial::Decoder& dec);
};

struct CheckpointFetchReply {
  std::uint64_t request_id = 0;
  bool found = false;
  bool adopted = false;
  std::uint64_t iteration = 0;
  double residual = 0.0;
  std::string origin;  // which origin's checkpoint matched

  void encode(serial::Encoder& enc) const;
  static Result<CheckpointFetchReply> decode(serial::Decoder& dec);
};

// ---- observability ----

/// Scrape a live process's metrics registry. Any NetSolve process (agent or
/// server) answers with a MetricsDump; the testkit and benches use this to
/// pull counters, gauges and span histograms out of a running cluster.
struct MetricsQuery {
  /// Only entries whose name starts with this ("" = the whole registry).
  std::string prefix;

  void encode(serial::Encoder& enc) const;
  static Result<MetricsQuery> decode(serial::Decoder& dec);
};

/// A metrics::Snapshot on the wire. The snapshot's JSON rendering is
/// deterministic, so dump -> encode -> decode -> dump round-trips exactly.
struct MetricsDump {
  metrics::Snapshot snapshot;

  void encode(serial::Encoder& enc) const;
  static Result<MetricsDump> decode(serial::Decoder& dec);
};

// ---- generic ----

struct ErrorReply {
  std::uint16_t error_code = 0;
  std::string message;

  void encode(serial::Encoder& enc) const;
  static Result<ErrorReply> decode(serial::Decoder& dec);
};

// ---- agent <-> agent (federation) ----

/// One server's state as shipped between federated agents. Identity is
/// (name, endpoint) — ids are agent-local. `age_seconds` is how stale the
/// sender's information is; the receiver only applies entries fresher than
/// what it already holds.
struct SyncEntry {
  std::string server_name;
  net::Endpoint endpoint;
  double mflops = 0.0;
  double workload = 0.0;
  std::uint64_t completed = 0;
  bool alive = true;
  double age_seconds = 0.0;
  std::vector<dsl::ProblemSpec> problems;

  void encode(serial::Encoder& enc) const;
  static Result<SyncEntry> decode(serial::Decoder& dec);
};

/// Full registry snapshot, exchanged periodically between peer agents.
struct SyncState {
  std::vector<SyncEntry> entries;

  void encode(serial::Encoder& enc) const;
  static Result<SyncState> decode(serial::Decoder& dec);
};

/// Health of one federated peer as seen by the reporting agent.
struct PeerStatus {
  net::Endpoint endpoint;
  bool alive = false;        // last snapshot exchange succeeded
  /// Seconds since the last successful exchange (< 0 = never reached).
  double age_seconds = -1.0;

  void encode(serial::Encoder& enc) const;
  static Result<PeerStatus> decode(serial::Decoder& dec);
};

struct AgentStats {
  std::uint64_t queries = 0;
  std::uint64_t registrations = 0;
  std::uint64_t workload_reports = 0;
  std::uint64_t failure_reports = 0;
  std::uint32_t alive_servers = 0;
  /// Per-peer federation health (empty for a standalone agent).
  std::vector<PeerStatus> peers;

  void encode(serial::Encoder& enc) const;
  static Result<AgentStats> decode(serial::Decoder& dec);
};

/// One message as a frame payload.
serial::Bytes encode_payload(const auto& msg) {
  serial::Encoder enc;
  msg.encode(enc);
  return enc.take();
}

}  // namespace ns::proto
