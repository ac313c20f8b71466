// The computational server daemon.
//
// Registers its problem catalogue and rating with an agent, then serves
// SolveRequests from clients. Connections live on an epoll reactor
// (net/reactor.hpp): frames from any number of keep-alive connections are
// decoded on one event loop and dispatched to an elastic handler pool, so
// concurrent requests pipeline over a single client connection. The server
// queues jobs, not threads: new, recovered, transferred and adopted jobs
// all go submit() -> EDF wait queue -> execute() -> complete() (see
// ActiveJob). Workload — the number of jobs running or waiting plus any
// configured synthetic background load — is reported to the agent
// periodically with a change threshold, reproducing the original system's
// traffic-bounded reporting.
//
// Heterogeneous pools on one machine are emulated with `speed_factor`
// in (0, 1]: after executing a request natively, the server busy-spins
// elapsed * (1/speed - 1) extra seconds, and it registers a rating scaled by
// the same factor, so the agent's predictions and the observed service
// times stay mutually consistent.
//
// Failure injection hooks exercise the client's fault-tolerance path:
// error replies, dropped connections mid-request, or a full crash.
#pragma once

#include <atomic>
#include <deque>
#include <map>
#include <utility>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.hpp"
#include "common/checkpoint.hpp"
#include "common/clock.hpp"
#include "common/error.hpp"
#include "common/memgov.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "dsl/registry.hpp"
#include "net/reactor.hpp"
#include "net/shaped_link.hpp"
#include "net/socket.hpp"
#include "net/task_pool.hpp"
#include "net/transport.hpp"
#include "proto/messages.hpp"
#include "server/admission.hpp"
#include "server/journal.hpp"

namespace ns::server {

struct FailureSpec {
  enum class Mode {
    kNone,          // healthy
    kErrorReply,    // reply with SERVER_FAILURE instead of executing
    kDropRequest,   // close the connection mid-request, no reply
    kHangRequest,   // accept the request, never reply (client must time out)
    kCrash,         // kill the whole server (listener closed, all drops)
  };
  Mode mode = Mode::kNone;
  /// Per-request probability of triggering (independent Bernoulli draws).
  double probability = 0.0;
  /// Additionally trigger once after exactly this many requests (<0 = off).
  std::int64_t after_requests = -1;
};

/// How a speed_factor < 1 stretches service time. kSpin occupies the host
/// CPU for the extra time (honest when emulated servers share one
/// processor); kSleep yields it (honest when each server stands in for an
/// independent remote machine — the multi-machine scheduling experiments).
enum class SlowdownMode { kSpin, kSleep };

struct ServerConfig {
  std::string name = "server";
  net::Endpoint listen{"127.0.0.1", 0};
  /// Agents to register with. Startup succeeds if at least one registration
  /// lands; the rest are retried in the background with decorrelated-jitter
  /// backoff, and workload reports fan out to every registered agent. The
  /// RegisterAck's peer list grows this set automatically, so pointing a
  /// server at one agent of a federated mesh reaches the whole mesh.
  std::vector<net::Endpoint> agents;
  /// Max requests executing concurrently; excess waits (and counts toward
  /// the reported workload).
  int workers = 2;
  /// Reject (SERVER_OVERLOADED, retryable) instead of queueing once this
  /// many requests are already waiting; 0 disables the hard queue bound.
  int max_queue = 0;
  /// Adaptive overload control layered on top of the queue bound.
  AdmissionConfig admission;
  /// Emulated relative speed in (0, 1]; see the file comment.
  double speed_factor = 1.0;
  SlowdownMode slowdown_mode = SlowdownMode::kSpin;
  /// Reported Mflop rating; 0 measures the host with linpack_rating().
  double rating_override = 0.0;
  /// Workload report cadence.
  double report_period_s = 0.1;
  /// Re-register with every agent this often (0 = only at startup).
  /// Registration is idempotent (the agent refreshes by name+endpoint and
  /// judges restarts by incarnation), so this makes servers survive an agent
  /// restart: the new agent learns the pool within one period. Each period
  /// is jittered by uniform(0.5, 1.5)x so a fleet does not re-register in
  /// lockstep after an agent reboot.
  double reregister_period_s = 5.0;
  /// Suppress a report unless the workload moved at least this much (in job
  /// units) since the last transmitted value. 0 reports every period.
  double report_threshold = 0.0;
  /// Synthetic competing load of L jobs: added to the reported workload AND
  /// stretching every service time by (1 + L) — the processor-sharing model
  /// the agent's predictor assumes.
  double background_load = 0.0;
  /// Shape applied to server->client reply traffic.
  net::LinkShape link;
  double io_timeout_s = 10.0;
  /// Transport hostile-peer armor (frame caps, buffer budgets, progress
  /// deadlines, connection cap). Server defaults keep kMaxPayload frames —
  /// large matrix blobs are the workload — but bound buffers and kill
  /// no-progress peers.
  net::GuardConfig guard;
  FailureSpec failure;
  std::uint64_t seed = 0x5e1f;
  /// Offer only these problems from the builtin catalogue (empty = all).
  /// Models the original deployments where different hosts wrapped
  /// different libraries (one machine has LAPACK, another ITPACK, ...).
  std::vector<std::string> problem_filter;
  /// Optional problem-description overrides in the @PROBLEM file format
  /// (see dsl/specfile.hpp). Lets an administrator re-tune descriptions and
  /// complexity models without recompiling — the original system's config
  /// workflow. Each overriding spec must match the builtin's signature
  /// (input/output names may change, types and arity may not).
  std::string spec_overrides;

  // ---- durability (write-ahead journal / checkpoint / migration) ----
  /// When non-empty, the server keeps a write-ahead job journal at
  /// <data_dir>/<name>.journal: every job transition is persisted before it
  /// takes externally visible effect, and a restarted server replays the
  /// journal to re-enqueue unfinished jobs (deadline budgets decayed by the
  /// downtime) and resume started ones from their last checkpoint. Empty
  /// (the default) disables the journal.
  std::string data_dir;
  /// fdatasync every journal append (the WAL guarantee). Off trades the
  /// durability of the last few records for append throughput.
  bool journal_fsync = true;
  /// Iterations between kernel state snapshots (0 = publish progress only,
  /// never serialize). Also the granularity drain migration can resume at.
  std::uint64_t checkpoint_interval = 25;
  /// Compact the journal (rewrite it with only live records) once it grows
  /// past this many bytes. 0 = compact only at startup.
  std::uint64_t journal_compact_bytes = 4u << 20;
  /// When the drain deadline lapses, hand running jobs (with their latest
  /// checkpoint) to a peer server via JOB_TRANSFER instead of plainly
  /// cancelling them; the displaced client gets a kMigrated forwarding
  /// address to re-attach to.
  bool migrate_on_drain = false;
  /// Peer servers to stream checkpoint frames to (CHECKPOINT_PUT). With
  /// replicas configured, every kernel snapshot also lands — delta/RLE
  /// compressed — on each peer, so a *crash* (not a drain) of this server
  /// loses at most one checkpoint interval: clients re-dispatch to a replica
  /// holder via CHECKPOINT_FETCH(adopt) and the job resumes there.
  std::vector<net::Endpoint> replicas;
  /// Compress replicated frames (XOR delta against the previous snapshot +
  /// byte-plane shuffle + run-length; see common/bytepack.hpp). Off sends
  /// raw frames — the bench baseline.
  bool checkpoint_compress = true;

  // ---- memory governance (byte-accounted admission + payload spill) ----
  /// Budgets and spill policy for the per-server MemGovernor: queued
  /// payloads, running working sets, and replica-store entries are charged
  /// against mem.global_bytes; jobs that cannot fit are shed retryably with
  /// a retry_after hint, and queued-but-cold payloads spill to
  /// mem.spill_dir through the vfs seam. See common/memgov.hpp.
  mem::MemBudgetConfig mem;
};

class ComputeServer {
 public:
  /// Rate the host (or take the override), register the builtin catalogue
  /// with the agent, and start serving.
  static Result<std::unique_ptr<ComputeServer>> start(ServerConfig config);

  ~ComputeServer();
  ComputeServer(const ComputeServer&) = delete;
  ComputeServer& operator=(const ComputeServer&) = delete;

  net::Endpoint endpoint() const { return endpoint_; }
  proto::ServerId server_id() const noexcept { return server_id_.load(); }
  const std::string& name() const noexcept { return config_.name; }
  double rated_mflops() const noexcept { return rated_mflops_; }

  /// Runtime controls for the experiments.
  void inject_failure(const FailureSpec& failure);
  void set_background_load(double load);

  /// Requests fully executed (successful replies sent).
  std::uint64_t completed() const noexcept { return completed_.load(); }
  /// Requests shed at admission: remaining budget below predicted service.
  std::uint64_t shed_admission() const { return read_policy(&AdmissionPolicy::shed_admission); }
  /// Requests shed at dequeue: deadline lapsed while queued, dropped
  /// retryably before any compute happened.
  std::uint64_t shed_dequeue() const { return read_policy(&AdmissionPolicy::shed_dequeue); }
  /// Requests shed by the CoDel sojourn controller.
  std::uint64_t shed_codel() const { return read_policy(&AdmissionPolicy::shed_codel); }
  /// Requests rejected by the per-client fair-share quota.
  std::uint64_t shed_quota() const { return read_policy(&AdmissionPolicy::shed_quota); }
  /// The current (possibly AIMD-adapted) concurrency limit.
  int concurrency_limit() const { return read_policy(&AdmissionPolicy::concurrency_limit); }
  /// Recent p95 of queue sojourn (the value piggybacked on workload
  /// reports); 0 until anything has been dequeued.
  double sojourn_p95() const { return read_policy(&AdmissionPolicy::sojourn_p95); }
  /// Requests cancelled while still waiting for a worker slot.
  std::uint64_t cancelled_queued() const noexcept { return cancelled_queued_.load(); }
  /// Requests cancelled mid-compute (kernel checkpoint unwound).
  std::uint64_t cancelled_running() const noexcept { return cancelled_running_.load(); }
  /// New requests refused because the server was draining.
  std::uint64_t drain_rejected() const noexcept { return drain_rejected_.load(); }
  /// Current workload as would be reported (running + waiting + background).
  double current_workload() const;
  /// Transport guard observability: live accepted connections and bytes
  /// buffered across them (read + write sides). The hostile-peer tests
  /// assert these stay inside the configured GuardConfig budgets.
  std::size_t transport_connections() const { return reactor_.connection_count(); }
  std::size_t transport_buffered_bytes() const noexcept { return reactor_.buffered_bytes(); }

  // ---- graceful drain (rolling restarts) ----
  //
  // State machine: serving -> draining -> drained. Entering `draining`
  // deregisters from every agent (traffic steers away immediately) and
  // rejects new SolveRequests with a retryable SERVER_OVERLOADED; queued and
  // in-flight jobs get `deadline_s` (default: the io timeout) to finish,
  // then anything still outstanding is cancelled through its token. The
  // listener stays up throughout — pings, metrics scrapes and CANCELs are
  // still served — so `drained` means "quiescent", not "stopped"; call
  // stop() (or exit the process) afterwards.

  /// Start draining without blocking. Returns true if this call initiated
  /// the drain, false if one was already running (idempotent).
  bool start_drain(double deadline_s = 0.0);
  /// Drain and block until quiescent.
  void drain(double deadline_s = 0.0);
  bool draining() const noexcept { return draining_.load(); }
  bool drained() const noexcept { return drained_.load(); }

  /// Stop serving and wait for in-flight work to drain.
  void stop();
  bool crashed() const noexcept { return crashed_.load(); }

  // ---- durability ----
  /// Unfinished jobs re-admitted from the journal at startup.
  std::uint64_t jobs_recovered() const noexcept { return jobs_recovered_.load(); }
  /// Running jobs handed to a peer server during drain.
  std::uint64_t jobs_migrated() const noexcept { return jobs_migrated_.load(); }
  /// Recovered/transferred jobs whose kernel resumed from a checkpoint
  /// rather than restarting from scratch.
  std::uint64_t jobs_resumed() const noexcept { return jobs_resumed_.load(); }
  /// Highest checkpoint iteration any resumed job restarted from.
  std::uint64_t last_resume_iteration() const noexcept {
    return last_resume_iteration_.load();
  }
  /// Journal records appended since startup.
  std::uint64_t journal_appends() const;
  /// True once a persistent write failure fail-stopped the journal and the
  /// server dropped to explicitly non-durable mode (advertised as
  /// durable=false in workload reports; durable-required jobs are shed
  /// retryably).
  bool durability_degraded() const noexcept { return degraded_.load(); }
  /// Checkpoint frames accepted by replica peers.
  std::uint64_t checkpoints_replicated() const noexcept {
    return ckpt_replicated_.load();
  }
  /// Jobs adopted here from the replica store after an origin crash.
  std::uint64_t failover_resumes() const noexcept { return failover_resumes_.load(); }
  /// Replicated checkpoints currently held for other servers' jobs.
  std::size_t replica_holds() const;
  /// Bytes the replica store currently accounts for.
  std::size_t replica_bytes() const;

  // ---- memory governance ----
  /// The byte account charged by admission, dispatch, and the replica
  /// store; tests assert peak() never exceeds budget().
  const mem::MemGovernor& governor() const noexcept { return governor_; }
  /// Queued payloads currently parked in the spill store.
  std::int64_t spilled_jobs() const noexcept { return spilled_jobs_.load(); }
  /// Jobs shed because their payload or working set did not fit a budget.
  std::uint64_t mem_shed() const noexcept { return mem_shed_.load(); }
  /// Emulated unclean death (SIGKILL): freeze the journal (nothing further
  /// reaches disk), suppress all replies and terminal accounting, and tear
  /// the threads down. Unlike stop(), in-flight jobs look — to clients and
  /// to the journal — as if the power was cut mid-write; a restart is
  /// expected to replay the journal and finish them.
  void crash();

 private:
  /// Registry handles resolved once at startup; the instruments themselves
  /// are process-wide atomics, so the request path stays lock-free. Counters
  /// and histograms aggregate across all servers in the process; the queue
  /// depth gauge is per-server (keyed by name) since depths do not sum.
  struct ServerMetrics {
    explicit ServerMetrics(std::string server_name) : name(std::move(server_name)) {}
    const std::string name;  // keys the per-server gauges
    metrics::Counter& requests = metrics::counter("server.requests_total");
    metrics::Counter& completed = metrics::counter("server.completed_total");
    metrics::Counter& admit = metrics::counter("server.admit_total");
    metrics::Counter& shed = metrics::counter("server.shed_total");
    metrics::Counter& shed_admission = metrics::counter("server.shed_admission_total");
    metrics::Counter& shed_dequeue = metrics::counter("server.shed_dequeue_total");
    metrics::Counter& shed_codel = metrics::counter("server.shed_codel_total");
    metrics::Counter& shed_quota = metrics::counter("server.shed_quota_total");
    metrics::Counter& aimd_backoff = metrics::counter("server.aimd_backoff_total");
    metrics::Counter& rejected = metrics::counter("server.rejected_total");
    metrics::Counter& exec_errors = metrics::counter("server.exec_errors_total");
    metrics::Counter& cancelled_queued = metrics::counter("server.cancelled_queued_total");
    metrics::Counter& cancelled_running = metrics::counter("server.cancelled_running_total");
    metrics::Counter& cancel_requests = metrics::counter("server.cancel_requests_total");
    metrics::Counter& drain_rejected = metrics::counter("server.drain_rejected_total");
    metrics::Counter& journal_appends = metrics::counter("server.journal_appends_total");
    metrics::Counter& jobs_recovered = metrics::counter("server.jobs_recovered_total");
    metrics::Counter& jobs_migrated = metrics::counter("server.jobs_migrated_total");
    metrics::Counter& jobs_resumed = metrics::counter("server.jobs_resumed_total");
    // Storage-fault armor (store.*): disk failures survived, degradation,
    // and checkpoint replication. Raw vs wire bytes expose the compression
    // ratio (the `store.ckpt_bytes_total{raw,wire}` pair of DESIGN.md §17).
    metrics::Counter& store_write_errors = metrics::counter("store.write_errors_total");
    metrics::Counter& store_degraded_shed = metrics::counter("store.degraded_shed_total");
    metrics::Counter& store_ckpt_replicated = metrics::counter("store.ckpt_replicated_total");
    metrics::Counter& store_ckpt_raw_bytes = metrics::counter("store.ckpt_raw_bytes_total");
    metrics::Counter& store_ckpt_wire_bytes = metrics::counter("store.ckpt_wire_bytes_total");
    metrics::Counter& store_failover_resume = metrics::counter("store.failover_resume_total");
    metrics::Gauge& store_degraded = metrics::gauge("store." + name + ".degraded");
    // Memory governance (mem.*): byte-accounted admission, payload spill,
    // and allocation-failure hardening. Counters are process-wide; the
    // accounted/peak/budget gauges are per-server (keyed by name) since
    // byte accounts do not sum meaningfully across servers.
    metrics::Counter& mem_shed = metrics::counter("mem.shed_total");
    metrics::Counter& mem_spilled_bytes = metrics::counter("mem.spilled_bytes_total");
    metrics::Counter& mem_spill_reloads = metrics::counter("mem.spill_reloads_total");
    metrics::Counter& mem_spill_reload_errors = metrics::counter("mem.spill_reload_errors_total");
    metrics::Counter& mem_bad_alloc = metrics::counter("mem.bad_alloc_total");
    metrics::Counter& mem_replica_evicted = metrics::counter("mem.replica_evicted_total");
    metrics::Counter& mem_forced_charge = metrics::counter("mem.forced_charge_total");
    metrics::Gauge& mem_accounted = metrics::gauge("mem." + name + ".accounted_bytes");
    metrics::Gauge& mem_peak = metrics::gauge("mem." + name + ".peak_bytes");
    metrics::Gauge& mem_budget = metrics::gauge("mem." + name + ".budget_bytes");
    metrics::Gauge& mem_spill_active = metrics::gauge("mem." + name + ".spill_active");
    metrics::Histogram& queue_sojourn_s = metrics::histogram("server.queue_sojourn_s");
    metrics::Histogram& compute_s = metrics::histogram("server.compute_s");
    metrics::Gauge& queue_depth = metrics::gauge("server." + name + ".queue_depth");
    metrics::Gauge& concurrency_limit = metrics::gauge("server." + name + ".concurrency_limit");
    metrics::Gauge& draining = metrics::gauge("server." + name + ".draining");
  };

  /// One admitted job, visible (keyed by request_id) in active_jobs_ from
  /// its admission until its terminal record. While waiting it sits in
  /// wait_queue_ and holds no thread; cancel, drain and stop take it off the
  /// queue and finish it directly. Once granted, one thread owns it until
  /// complete() or abandon(), and its kernel polls the token. request_ids
  /// are client-minted, so collisions across clients are possible — hence a
  /// multimap; a cancel simply trips every job carrying the id.
  struct ActiveJob {
    cancel::Token token;
    /// True until the dispatcher grants a slot (CANCEL/PROBE report it).
    std::atomic<bool> queued{true};
    /// The request itself lives with the job so journal compaction and drain
    /// migration can re-serialize it.
    proto::SolveRequest request;
    /// A hold() on the client's connection, keeping it out of the idle
    /// sweep until the reply is queued. Null for recovered, transferred and
    /// adopted jobs: their callers re-attach with a PROBE.
    net::ReactorConnPtr reply_to;
    /// Started at receipt; deadline budgets and trace spans are relative to it.
    Stopwatch since_receipt;
    /// Iteration-granular progress/snapshot channel bound around execute().
    checkpoint::Token ckpt;
    std::atomic<bool> started{false};
    /// Set by the drain sweep just before cancelling: the owning thread
    /// forwards the latest checkpoint to a peer instead of replying
    /// kCancelled.
    std::atomic<bool> migrate{false};
    /// Recovered or transferred-in jobs bypass the admission rejections
    /// (queue bound, quota, infeasibility) — they were already admitted
    /// once; shedding them now would lose accepted work.
    bool readmit = false;
    /// An ADMITTED record for this job is on disk (terminal record owed).
    bool journaled = false;
    // ---- wait-queue state (under jobs_mu_) ----
    AdmissionPolicy::QueueKey queue_key;
    double enqueue_time = 0.0;    // now_seconds() at admission
    double est_service_s = 0.0;   // predicted compute time (0 = unknown)
    // ---- memory accounting (mutated under jobs_mu_ until dispatch; owner-
    // thread-only afterwards) ----
    /// Serialized payload size charged to the governor at admission.
    std::uint64_t payload_bytes = 0;
    /// Working-set estimate charged by the dispatcher at slot grant.
    std::uint64_t ws_bytes = 0;
    /// Payload bytes released to the spill store while waiting; the
    /// dispatcher re-charges them at grant (the reload re-materializes the
    /// payload in RAM).
    std::uint64_t spilled_bytes = 0;
    /// Bytes currently charged to the governor on this job's behalf;
    /// released in one step when the job reaches any terminal path.
    std::uint64_t mem_charged_bytes = 0;
    /// Payload parked in the spill store; request.args is empty until the
    /// dispatch-time reload (guarded by active_jobs_mu_ against concurrent
    /// journal compaction, which must read the spill file instead).
    bool spilled = false;
    std::int64_t admitted_wall_us = 0;        // ADMITTED record stamp
    double admit_deadline_remaining_s = 0.0;  // budget left at admission
    /// Absolute deadline fixed at enqueue: the EDF key, and the hand-off
    /// budget for migration and replication.
    double deadline_abs = AdmissionPolicy::kNoDeadline;

    // ---- checkpoint replication state ----
    // Touched only from the thread executing the job (the on_snapshot
    // callback fires synchronously at loop heads), so no lock is needed.
    /// One replica peer's view of this job.
    struct ReplPeer {
      bool sent_request = false;      // peer holds the SolveRequest already
      std::uint64_t acked_iteration = 0;  // last frame the peer accepted
      double retry_at = 0.0;          // now_seconds() backoff after a failure
    };
    std::vector<ReplPeer> repl_peers;
    /// Previous snapshot (uncompressed) — the delta base for the next frame.
    serial::Bytes repl_prev_state;
    std::uint64_t repl_prev_iteration = 0;
  };

  /// One agent this server registers with. `id` is agent-local (each agent
  /// assigns its own), so reports carry the per-link id. Owned exclusively
  /// by the report thread once the server is running (startup registration
  /// happens-before the thread spawns); no lock needed.
  struct AgentLink {
    net::Endpoint endpoint;
    proto::ServerId id = proto::kInvalidServerId;
    double next_attempt_time = 0.0;  // now_seconds() of the next (re)register
    double backoff_s = 0.0;          // decorrelated-jitter failure backoff
  };

  /// Jobs granted a slot and jobs refused (with their reply) under jobs_mu_,
  /// acted on once it is released: acting journals and replies.
  struct Dispatched {
    std::vector<std::shared_ptr<ActiveJob>> granted;
    std::vector<std::pair<std::shared_ptr<ActiveJob>, proto::SolveResult>> refused;
  };

  ComputeServer(ServerConfig config, net::TcpListener listener, double rated_mflops);

  /// Register with one agent; on success updates the link id and merges the
  /// ack's peer agents into `discovered`.
  Status register_link(AgentLink& link, std::vector<net::Endpoint>* discovered);
  /// (Re)register every link whose attempt time is due; schedules the next
  /// attempt per link (jittered period on success, backoff on failure) and
  /// adopts newly discovered peer agents.
  void maintain_registrations();
  /// Reactor dispatch: one complete, CRC-valid frame from one connection.
  /// Runs on a pool thread; returns false to drop the connection (protocol
  /// violation, injected drop, shutdown).
  bool handle_message(const net::ReactorConnPtr& conn, net::Message&& msg);
  /// The SolveRequest path: failure injection, then submit(); runs what the
  /// admission granted on this (now free) thread.
  bool handle_solve(const net::ReactorConnPtr& conn, const serial::Bytes& payload);

  // ---- the job lifecycle ----
  /// Admission checks, then the EDF wait queue and a dispatch pass.
  Dispatched submit(std::shared_ptr<ActiveJob> job);
  /// Complete the refused jobs and execute the granted ones: the first on
  /// this thread when it is free, the rest on job_pool_.
  void run(Dispatched dispatched, bool this_thread_free);
  /// Kernel, slot release (its grants go to job_pool_), complete().
  void execute(const std::shared_ptr<ActiveJob>& job);
  /// finish_job(), then the reply (neither under crash(): abandon()).
  void complete(const std::shared_ptr<ActiveJob>& job, const proto::SolveResult& result);
  /// Drop a job with no reply and no terminal record (stop, crash), so
  /// replay re-admits it; closes the connection the reply was owed on.
  void abandon(const std::shared_ptr<ActiveJob>& job);
  /// Take every job, or only those whose token tripped, off the wait queue.
  std::vector<std::shared_ptr<ActiveJob>> take_queued(bool cancelled_only);
  /// The kCancelled reply of a job cancelled before it started (counted).
  proto::SolveResult cancelled_in_queue(const ActiveJob& job);
  void report_loop();
  void send_workload_report(double workload);
  /// Predicted service time for one request from the problem's complexity
  /// model and this server's rating (0 = no model / unknown problem).
  double estimate_service_seconds(const proto::SolveRequest& request) const;
  // ---- admission queue internals; all *_locked require jobs_mu_ ----
  /// Fill free worker slots from the wait queue in EDF order, shedding
  /// expired / CoDel-flagged / cancelled entries along the way. Called
  /// after every enqueue and every slot release; grants nothing once
  /// stopping.
  void dispatch_locked(Dispatched& out);
  /// Waiting-side bookkeeping for a job leaving wait_queue_.
  void unqueue_locked(const ActiveJob& job);
  /// One reading of the admission policy, under jobs_mu_.
  template <typename R>
  R read_policy(R (AdmissionPolicy::*read)() const) const {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    return (policy_.*read)();
  }
  /// Decide failure injection for one request; returns the triggered mode.
  FailureSpec::Mode roll_failure();
  /// Trip the token of every active job carrying `request_id` and finish
  /// the queued ones; returns the most-advanced state found (running >
  /// queued > completed/unknown).
  proto::CancelOutcome cancel_jobs(std::uint64_t request_id);
  /// The drain worker: deregister, wait out the queue, cancel stragglers.
  void drain_work(double deadline_s);
  /// Fire-and-forget DeregisterServer to every agent this server registered
  /// with, so rankings exclude it immediately.
  void deregister_from_agents();

  // ---- durability internals ----
  //
  // Lock order: journal_mu_ before results_mu_ / active_jobs_mu_; never the
  // reverse, and jobs_mu_ is never held across a journal append. The
  // terminal protocol (finish_job) runs entirely under journal_mu_ so a
  // concurrent compaction sees each job either still active (re-journals
  // its ADMITTED chain) or already in the result store (re-journals
  // COMPLETED) — never in between, which is what makes compaction unable
  // to drop a job.

  /// mkdir the data dir, replay + open the journal, rebuild unfinished jobs
  /// (submitted by start() once the threads are up), and compact the
  /// replayed history. Called once from start().
  Status open_journal();
  void restore_from_replay(ReplaySummary replay);
  /// Append one record; silent no-op without an open journal.
  void journal_append(const JournalRecord& record);
  void journal_append_locked(const JournalRecord& record);
  /// Persist the ADMITTED record and stamp the job's recovery fields.
  void journal_admit(ActiveJob& job, double deadline_remaining_s);
  /// Terminal accounting: journal the terminal record, store the result for
  /// late probes, and drop the job from the active table.
  void finish_job(const std::shared_ptr<ActiveJob>& job,
                  const proto::SolveResult& result);
  void store_result(std::uint64_t request_id, const proto::SolveResult& result);
  /// Rewrite the journal with only live records once it outgrows the bound.
  void maybe_compact();
  std::vector<JournalRecord> collect_live_records_locked();
  void erase_active_job(const std::shared_ptr<ActiveJob>& job,
                        std::uint64_t request_id);
  /// PROBE: the most-advanced state known for request_id.
  proto::ProbeReply probe_job(const proto::ProbeRequest& probe);
  /// JOB_TRANSFER receive side: admit the handed-over job and seed its
  /// checkpoint token from the carried snapshot.
  proto::TransferAck accept_transfer(proto::JobTransfer transfer);
  /// Admit a transferred or adopted job, journaling and installing its
  /// snapshot (if any), and queue it.
  void readmit(proto::SolveRequest request, checkpoint::Snapshot snap);
  /// Persistent journal failure: fail-stop durability and advertise it.
  /// Requires journal_mu_ (the trigger sites already hold it).
  void enter_degraded_locked(const char* what);
  /// Stream one checkpoint frame for `job` to every configured replica.
  /// Runs on the job's kernel thread (on_snapshot callback).
  void replicate_checkpoint(ActiveJob& job, const checkpoint::Snapshot& snap);
  /// CHECKPOINT_PUT receive side: store (or delta-patch) a peer's frame.
  proto::CheckpointPutAck accept_checkpoint(proto::CheckpointPut put);
  /// CHECKPOINT_FETCH: report a held checkpoint; with adopt, re-admit the
  /// job here (the crash-time analogue of accept_transfer).
  proto::CheckpointFetchReply handle_checkpoint_fetch(const proto::CheckpointFetch& fetch);
  /// Drain-side migration: hand `job`'s latest checkpoint to a peer. On
  /// success rewrites `result` into kMigrated + the forwarding address.
  bool migrate_job(ActiveJob& job, proto::SolveResult& result);

  // ---- memory governance internals ----
  /// Working-set estimate for one request (factor * payload, floored).
  std::uint64_t estimate_working_set_bytes(const proto::SolveRequest& request) const;
  /// True when a queued job's payload should go to disk: spill enabled,
  /// payload large enough, and (when governed) accounted bytes past the
  /// watermark.
  bool should_spill_locked(const ActiveJob& job) const;
  /// Park `job`'s encoded request in the spill store. Called with jobs_mu_
  /// NOT held (does I/O); takes active_jobs_mu_ to swap the args out so a
  /// concurrent journal compaction never sees a half-cleared request.
  bool spill_job(const std::shared_ptr<ActiveJob>& job);
  /// Re-materialize a spilled payload at dispatch. On failure the caller
  /// sheds the job retryably.
  Status reload_spilled(const std::shared_ptr<ActiveJob>& job);
  /// Release every byte charged on `job`'s behalf and drop its spill file.
  /// Safe on every terminal path (idempotent via mem_charged_bytes = 0).
  void release_job_memory(const std::shared_ptr<ActiveJob>& job);
  /// Largest-first eviction until the replica store fits `incoming` more
  /// bytes under both the replica budget and the governor. Requires
  /// replica_mu_. Returns false when even an empty store cannot fit it.
  bool make_replica_room_locked(std::size_t incoming,
                                const std::pair<std::string, std::uint64_t>& keep);
  void drop_replica_entry_locked(const std::pair<std::string, std::uint64_t>& key);
  /// Ask the registered agents which peers can run this request's problem.
  std::vector<proto::ServerCandidate> query_candidates(
      const proto::SolveRequest& request);

  ServerConfig config_;
  /// Held only between construction and reactor start (which adopts it);
  /// endpoint_ keeps the bound address for registration and migration.
  net::TcpListener listener_;
  net::Endpoint endpoint_;
  net::Reactor reactor_;
  dsl::ProblemRegistry registry_;
  double rated_mflops_ = 0.0;
  std::atomic<proto::ServerId> server_id_{proto::kInvalidServerId};
  /// This process lifetime's identity (see proto::RegisterServer).
  std::uint64_t incarnation_ = 0;
  /// Guards agent_links_: normally report-thread-only, but the drain worker
  /// reads the link table for its deregistration fan-out.
  std::mutex links_mu_;
  std::vector<AgentLink> agent_links_;
  Rng reregister_rng_;  // report-thread only

  std::atomic<bool> stopping_{false};
  std::atomic<bool> crashed_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> drained_{false};
  std::thread drain_thread_;

  std::mutex active_jobs_mu_;
  std::multimap<std::uint64_t, std::shared_ptr<ActiveJob>> active_jobs_;

  // Admission queue + worker-slot gate. submit() inserts jobs;
  // dispatch_locked() hands out worker slots in the policy's order and sheds
  // what the policy refuses. The policy's waiting count also covers a job
  // that is off the queue only while its payload spills.
  mutable std::mutex jobs_mu_;
  int running_jobs_ = 0;
  std::map<AdmissionPolicy::QueueKey, std::shared_ptr<ActiveJob>> wait_queue_;
  AdmissionPolicy policy_;

  mutable std::mutex failure_mu_;
  Rng failure_rng_;
  std::atomic<std::int64_t> requests_seen_{0};
  std::atomic<double> background_load_;

  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> cancelled_queued_{0};
  std::atomic<std::uint64_t> cancelled_running_{0};
  std::atomic<std::uint64_t> drain_rejected_{0};

  /// Guards the journal and the terminal-record protocol (see above).
  mutable std::mutex journal_mu_;
  Journal journal_;
  /// Jobs rebuilt from the journal, submitted by start() once serving.
  std::vector<std::shared_ptr<ActiveJob>> recovered_jobs_;
  /// Terminal results kept for re-attaching probes, bounded FIFO.
  static constexpr std::size_t kMaxStoredResults = 512;
  mutable std::mutex results_mu_;
  std::map<std::uint64_t, proto::SolveResult> results_;
  std::deque<std::uint64_t> results_order_;
  /// Set by crash(): suppress replies and terminal accounting so the
  /// emulated kill looks like a power cut, not a graceful unwind.
  std::atomic<bool> crash_mode_{false};
  std::atomic<std::uint64_t> jobs_recovered_{0};
  std::atomic<std::uint64_t> jobs_migrated_{0};
  std::atomic<std::uint64_t> jobs_resumed_{0};
  std::atomic<std::uint64_t> last_resume_iteration_{0};

  // ---- storage-fault armor ----
  /// Journal fail-stopped; the server runs explicitly non-durable.
  std::atomic<bool> degraded_{false};
  /// Durability state changed since the last workload report (forces a
  /// report past the change threshold so agents learn promptly).
  std::atomic<bool> durable_dirty_{false};
  std::atomic<std::uint64_t> ckpt_replicated_{0};
  std::atomic<std::uint64_t> failover_resumes_{0};
  /// Replica store: checkpoints held for peers' jobs, keyed by
  /// (origin server name, request id), bounded FIFO like the result store.
  struct ReplicaEntry {
    proto::SolveRequest request;
    bool has_request = false;
    double deadline_remaining_s = 0.0;  // budget at the last PUT
    std::int64_t stored_wall_us = 0;    // PUT stamp (deadline decay baseline)
    checkpoint::Snapshot snapshot;      // decompressed state
    /// Bytes this entry accounts for (snapshot state + request payload),
    /// charged to the governor and bounded by mem.replica_budget_bytes.
    std::size_t bytes = 0;
  };
  static constexpr std::size_t kMaxReplicaEntries = 256;
  mutable std::mutex replica_mu_;
  std::map<std::pair<std::string, std::uint64_t>, ReplicaEntry> replica_store_;
  std::deque<std::pair<std::string, std::uint64_t>> replica_order_;
  std::size_t replica_bytes_ = 0;  // under replica_mu_

  // ---- memory governance ----
  mem::MemGovernor governor_;
  mem::SpillStore spill_;
  /// Payloads currently parked on disk (drives the spill_active ternary).
  std::atomic<std::int64_t> spilled_jobs_{0};
  std::atomic<std::uint64_t> mem_shed_{0};
  /// Memory-pressure state changed since the last workload report (same
  /// force-a-report contract as durable_dirty_).
  std::atomic<bool> mem_dirty_{false};

  ServerMetrics metrics_;

  std::thread report_thread_;
  /// Runs granted jobs that no free thread picked up; threads grow on demand
  /// up to twice the concurrency bound and are joined by stop().
  net::TaskPool job_pool_;
};

}  // namespace ns::server
