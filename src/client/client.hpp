// The NetSolve client library.
//
// The call surface mirrors the original C interface:
//   netsl(...)     -- blocking call: query the agent, send the request to
//                     the best server, transparently retrying down the
//                     ranked list on failure.
//   netsl_nb(...)  -- non-blocking call returning a RequestHandle with
//                     probe()/wait() (netslpr/netslwt in the original).
//   call(...)      -- MATLAB-style variadic convenience front end.
//
// Leases: when the agent answers a latency-bound query with a lease, the
// client keeps the ranked list in a function handle per (problem, size class)
// and the next calls on that handle skip the query, GridRPC-style, until the
// lease runs out or a failure, overload, queued reply or agent failover
// revokes it (DESIGN.md §19).
//
// Fault tolerance: a retryable failure (connection refused/reset, timeout,
// corrupted frame, injected server failure) is reported to the agent (which
// quarantines the server) and the next candidate is tried; the ranked list
// is re-fetched if exhausted, up to max_retries attempts total — or, when a
// deadline budget is configured, until the budget runs out. Retries are
// spaced by exponential backoff with decorrelated jitter so a pool-wide
// outage does not turn into a synchronized retry storm. Non-retryable
// failures (bad arguments, unknown problem, execution errors, expired
// deadline) surface immediately.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "common/trace.hpp"
#include "dsl/problem.hpp"
#include "dsl/value.hpp"
#include "net/shaped_link.hpp"
#include "net/socket.hpp"
#include "net/transport.hpp"
#include "proto/messages.hpp"

namespace ns::client {

struct ClientConfig {
  /// Agents to talk to, in preference order. Every agent-bound operation
  /// (query, catalogue, stats, failure/metrics reports) goes to the first
  /// live agent and fails over down the list; per-agent health is tracked so
  /// a dead agent is skipped for agent_down_cooldown_s before being retried.
  std::vector<net::Endpoint> agents;
  /// Shape applied to client->server request traffic (WAN emulation).
  net::LinkShape link;
  /// Total request attempts across candidates/re-queries before giving up.
  /// Ignored when `deadline_s` is set: the budget, not an attempt count,
  /// then decides when to stop.
  int max_retries = 4;
  double io_timeout_s = 30.0;
  /// Per-call deadline budget in seconds (0 = none). When set, the client
  /// keeps retrying until the budget runs out, clamps every IO wait to the
  /// remaining budget, and sends the remaining budget in each SolveRequest
  /// so servers can shed work that already expired.
  double deadline_s = 0.0;
  /// Backoff between retry attempts: decorrelated jitter,
  /// sleep = min(backoff_max_s, uniform(backoff_base_s, 3 * previous)),
  /// clamped to the remaining deadline budget. 0 disables backoff.
  double backoff_base_s = 0.005;
  double backoff_max_s = 0.25;
  /// Seed for the jitter draws (deterministic backoff sequences in tests).
  std::uint64_t backoff_seed = 0xb0ff;
  /// How many ranked candidates to request from the agent per query.
  std::uint32_t max_candidates = 8;
  /// Feed client-observed transfer metrics back to the agent.
  bool report_metrics = true;
  /// Report failed servers to the agent (enables agent-side blacklisting).
  bool report_failures = true;
  /// How long a failed agent is skipped before the client tries it again.
  double agent_down_cooldown_s = 2.0;
  /// Connect budget per agent dial. Deliberately short: a live agent accepts
  /// in microseconds, and a dead one should cost little before the client
  /// fails over to the next agent in the list.
  double agent_connect_timeout_s = 0.5;
  /// Bounded staleness of the degraded-mode candidate cache: the last good
  /// ranked list per problem is kept this long, and when ALL agents are
  /// unreachable, calls for cached problems go direct-to-server from it
  /// (counted in client.degraded_calls_total). 0 disables degraded mode.
  /// The same cache holds the agent's leases (see NetSolveClient), whose
  /// length the agent sets.
  double candidate_cache_ttl_s = 30.0;

  // ---- hedged requests (tail-latency armor) ----
  /// Hedge delay in seconds; 0 disables hedging. When an attempt has been
  /// outstanding this long, a backup attempt is raced on the next-ranked
  /// candidate: first result wins and the loser is actively cancelled
  /// (CANCEL by request id, fire-and-forget). The configured value is the
  /// static fallback — once the per-problem attempt-latency histogram
  /// (client.problem.<name>.attempt_s, successes only) has hedge_min_samples
  /// observations, the delay is its hedge_quantile instead, so hedges fire
  /// only in the observed tail.
  double hedge_delay_s = 0.0;
  /// Quantile of observed attempt latency used as the hedge delay.
  double hedge_quantile = 0.95;
  /// Observations required before the quantile replaces the static delay.
  std::uint64_t hedge_min_samples = 20;
  /// Client identity stamped into every SolveRequest for the servers'
  /// per-client fair-share accounting. 0 (default) mints a random id per
  /// client instance; set explicitly to make several instances share one
  /// quota bucket (or to pin ids in tests).
  std::uint64_t client_id = 0;

  // ---- durable jobs (crash recovery / migration) ----
  /// When > 0 and an attempt's transport dies *after* the request was sent
  /// (connection reset, recv timeout — anything but connect-failed), the
  /// client does not immediately resubmit: it polls PROBE at the same server
  /// for up to this many seconds. A journaling server that crashed and
  /// restarted recovers the job from its write-ahead log and finishes it, so
  /// the original submission completes without a duplicate solve. 0 (default)
  /// keeps the classic resubmit-on-failure behavior.
  double reattach_s = 0.0;
  /// Stamp require_durable into every SolveRequest: servers whose journal
  /// fail-stopped (or that never journal) shed the request retryably instead
  /// of accepting it without crash protection.
  bool require_durable = false;
  /// After a failed reattach (the server stayed dead), ask the remaining
  /// ranked candidates whether any of them holds a replicated checkpoint for
  /// the request (CHECKPOINT_FETCH with adopt): the adopter resumes the job
  /// from the last replicated snapshot and the client waits there, instead
  /// of restarting the solve from iteration zero elsewhere. Needs servers
  /// configured with `replicas=` peers to have any effect.
  bool checkpoint_failover = false;
};

/// Per-call telemetry, filled when the caller passes a stats out-param.
/// On failed calls the attempt/backoff/timing fields and the trace are
/// still valid; the server_* and byte fields stay at their defaults.
struct CallStats {
  proto::ServerId server_id = proto::kInvalidServerId;
  std::string server_name;
  double predicted_seconds = 0.0;  // agent's estimate for the chosen server
  double total_seconds = 0.0;      // wall time of the whole call
  double exec_seconds = 0.0;       // server-reported compute time
  double transfer_seconds = 0.0;   // total - exec (marshal + network + queue)
  std::uint64_t input_bytes = 0;
  std::uint64_t output_bytes = 0;
  int attempts = 0;                // 1 = first server worked
  double backoff_seconds = 0.0;    // total time slept between attempts
  /// True when the candidate list came from the client's staleness-bounded
  /// cache because no agent was reachable (degraded mode).
  bool degraded = false;
  /// True when the call reused a leased candidate list and skipped the agent
  /// query (no client.query span then).
  bool leased = false;
  /// True when a backup (hedge) attempt was launched for this call,
  /// whichever attempt ended up winning.
  bool hedged = false;
  /// Trace id minted for this call (carried to the agent and server).
  trace::TraceId trace_id = trace::kNoTrace;
  /// Per-hop spans of the call in causal order — agent query, scheduling
  /// decision, each attempt, and (for the winning attempt) the server's
  /// queue wait, compute, and the result transfer back. Offsets are seconds
  /// since call entry; starts are non-decreasing.
  std::vector<trace::Span> spans;
};

class RequestHandle;

class NetSolveClient {
 public:
  explicit NetSolveClient(ClientConfig config)
      : config_(std::move(config)),
        // request_ids travel to servers, where several clients' ids share one
        // cancellation table — seed from the trace-id entropy pool so two
        // clients do not mint colliding id streams.
        next_request_id_(trace::new_trace_id() | 1),
        // client_id travels to servers for fair-share accounting; minted from
        // the same entropy pool so two unconfigured clients land in separate
        // quota buckets.
        client_id_(config_.client_id != 0 ? config_.client_id
                                          : (trace::new_trace_id() | 1)),
        backoff_rng_(config_.backoff_seed),
        agent_health_(config_.agents.size()),
        calls_total_(metrics::counter("client.calls_total")),
        attempts_total_(metrics::counter("client.attempts_total")),
        leased_calls_total_(metrics::counter("client.leased_calls_total")),
        call_s_(metrics::histogram("client.call_s")),
        query_span_(trace::span_histogram("client.query")),
        attempt_span_(trace::span_histogram("client.attempt")),
        result_transfer_span_(trace::span_histogram("client.result_transfer")) {}

  /// Waits for the workers of netsl_nb calls whose handles were dropped:
  /// they reference this client and would otherwise race its teardown. A
  /// hedge loser or cancel still in flight holds nothing of the client, so
  /// it is not waited for.
  ~NetSolveClient();

  /// Blocking solve. Returns the problem's output list.
  Result<std::vector<dsl::DataObject>> netsl(const std::string& problem,
                                             const std::vector<dsl::DataObject>& args,
                                             CallStats* stats = nullptr);

  /// Non-blocking solve; the returned handle owns a worker thread running
  /// netsl, the one thread the client still starts per call. Lifetime: the
  /// client must outlive every in-flight request it issued (the worker
  /// calls back into this client). Dropping the handle is fine —
  /// the orphaned worker finishes in the background — but destroy the
  /// client only after all requests completed or were waited on.
  RequestHandle netsl_nb(const std::string& problem, std::vector<dsl::DataObject> args);

  /// MATLAB-style: ns.call("dgesv", A, b) — arguments convert to DataObject.
  template <typename... Ts>
  Result<std::vector<dsl::DataObject>> call(const std::string& problem, Ts&&... ts) {
    std::vector<dsl::DataObject> args;
    args.reserve(sizeof...(Ts));
    (args.emplace_back(std::forward<Ts>(ts)), ...);
    return netsl(problem, args);
  }

  /// Ask the agent for the ranked candidate list without executing. Always
  /// a round trip, whatever lease the client holds; a lease in the reply is
  /// kept for the next netsl on this problem and size.
  Result<proto::ServerList> query(const std::string& problem,
                                  const std::vector<dsl::DataObject>& args);

  /// The union problem catalogue known to the agent.
  Result<std::vector<dsl::ProblemSpec>> list_problems();

  Result<proto::AgentStats> agent_stats();

  /// Liveness check against the agent.
  Status ping_agent();

  const ClientConfig& config() const noexcept { return config_; }

 private:
  friend class RequestHandle;

  /// Per-configured-agent liveness, updated by every agent interaction.
  struct AgentHealth {
    double down_until = 0.0;  // skip until this now_seconds() timestamp
  };
  using ListPtr = std::shared_ptr<const proto::ServerList>;

  /// The agent's lease on a ranked list: calls reuse `list` without a query
  /// until `expires_at`, while `calls_left` lasts and fewer than `slots`
  /// calls are in flight on it. Guarded by cache_mu_.
  struct Lease {
    ListPtr list;
    double expires_at = 0.0;
    std::uint32_t calls_left = 0;
    std::uint32_t slots = 0;
    std::uint32_t in_flight = 0;
  };
  using LeasePtr = std::shared_ptr<Lease>;

  /// A bound function handle: one (problem, size class)'s last good ranked
  /// list, kept for degraded-mode calls, and the lease on it, if any.
  /// Entries are never erased, so references stay valid.
  struct FunctionHandle {
    explicit FunctionHandle(const std::string& problem);
    /// client.problem.<name>.attempt_s, resolved once.
    metrics::Histogram& attempt_s;
    ListPtr list;  // guarded by cache_mu_
    double stored_at = 0.0;
    LeasePtr lease;  // null: the next call queries
  };

  FunctionHandle& function_handle(const std::string& problem, std::uint64_t input_bytes);
  /// Claim one call on `handle`'s lease (its list then needs no query).
  /// Returns null, dropping the lease, once it expired, spent its budget or
  /// has every slot in flight.
  LeasePtr take_lease(FunctionHandle& handle);
  /// The call holding `lease` ended; `revoke` drops the lease too.
  void end_lease_call(FunctionHandle& handle, const LeasePtr& lease, bool revoke);
  void revoke_all_leases();

  /// `timeout_cap` > 0 additionally clamps the IO timeout (deadline budget).
  /// The reply is stored in `handle`. A granted lease is claimed for the
  /// calling netsl when `ticket` is non-null. On total agent outage the
  /// cache may answer instead; `*degraded` is set true in that case.
  Result<ListPtr> query_metadata(FunctionHandle& handle, const std::string& problem,
                                 std::uint64_t input_bytes, std::uint64_t size_hint,
                                 double timeout_cap = 0.0,
                                 trace::TraceId trace_id = trace::kNoTrace,
                                 bool* degraded = nullptr, LeasePtr* ticket = nullptr);
  /// The hedge delay for one call: the per-problem attempt-latency quantile
  /// once enough samples exist, else the configured static delay. 0 = off.
  double hedge_delay_for(const metrics::Histogram& attempt_s) const;
  /// netsl_nb worker accounting. end_background() may be the worker's last
  /// touch of the client.
  void begin_background();
  void end_background();
  void report_failure(proto::ServerId id, ErrorCode code);
  void report_metrics(proto::ServerId id, std::uint64_t bytes, double seconds);
  /// Next decorrelated-jitter sleep given the previous one (thread-safe:
  /// netsl may run concurrently on several netsl_nb workers).
  double backoff_jitter(double prev_sleep);

  /// Agent indices in try order: the sticky active agent first (if not in
  /// cooldown), then other live agents, then cooled-down ones as a last
  /// resort (an empty health table would otherwise deadlock recovery).
  std::vector<std::size_t> agent_order();
  void note_agent_result(std::size_t index, bool ok);
  /// Round-trip against the first agent that answers, failing over down the
  /// ordered list (client.agent_failover_total counts rescued operations).
  Result<net::Message> agent_round_trip(std::uint16_t type, const serial::Bytes& payload,
                                        double timeout);
  /// Fire-and-forget to the first agent not in cooldown (reports are advice;
  /// they are not worth connect timeouts against dead agents).
  void post_to_agent(std::uint16_t type, const serial::Bytes& payload);

  ClientConfig config_;
  std::atomic<std::uint64_t> next_request_id_{1};
  std::uint64_t client_id_ = 0;
  std::mutex backoff_mu_;
  Rng backoff_rng_;

  std::mutex agents_mu_;
  std::vector<AgentHealth> agent_health_;
  std::size_t active_agent_ = 0;

  /// Live background workers; the destructor blocks on the condvar until
  /// this drains (no busy-spin).
  std::mutex bg_mu_;
  std::condition_variable bg_cv_;
  int bg_outstanding_ = 0;

  // Per-call instruments, resolved once: a registry lookup takes the
  // process-global mutex and a string search.
  metrics::Counter& calls_total_;
  metrics::Counter& attempts_total_;
  metrics::Counter& leased_calls_total_;
  metrics::Histogram& call_s_;
  metrics::Histogram& query_span_;
  metrics::Histogram& attempt_span_;
  metrics::Histogram& result_transfer_span_;

  /// Function handles by (problem, size class).
  std::mutex cache_mu_;
  std::map<std::pair<std::string, int>, FunctionHandle> handles_;
};

/// Future-like handle for non-blocking calls (netslpr/netslwt).
class RequestHandle {
 public:
  RequestHandle() = default;
  RequestHandle(RequestHandle&&) = default;
  RequestHandle& operator=(RequestHandle&&) = default;

  /// Has the call finished (successfully or not)?
  bool ready() const;

  /// Block until completion and take the result. Calling wait() twice
  /// returns kInternal on the second call (the result is moved out).
  Result<std::vector<dsl::DataObject>> wait();

  /// Stats of the completed call (valid after wait()/ready()).
  const CallStats& stats() const;

  bool valid() const noexcept { return state_ != nullptr; }

 private:
  friend class NetSolveClient;

  struct State;
  explicit RequestHandle(std::shared_ptr<State> state) : state_(std::move(state)) {}
  std::shared_ptr<State> state_;
};

/// Scrape a live NetSolve process's metrics registry over the wire
/// (proto::MetricsQuery -> MetricsDump). Works against any agent or server
/// endpoint; `prefix` filters entries by name ("" = everything).
Result<metrics::Snapshot> scrape_metrics(const net::Endpoint& peer, double timeout_s = 5.0,
                                         const std::string& prefix = {});

/// Cancel `request_id` on the server at `peer` and wait for the ack. The
/// outcome reports how far the request had progressed (queued, running, or
/// already completed/unknown). Used by operators and tests; the client's own
/// hedge-loser cancellation is fire-and-forget.
Result<proto::CancelAck> cancel_request(const net::Endpoint& peer, std::uint64_t request_id,
                                        double timeout_s = 5.0);

/// Ask the server at `peer` to drain (stop accepting work, finish or cancel
/// its queue within `deadline_s`, deregister from its agents). Returns the
/// ack with the server's outstanding-work snapshot; started=false means a
/// drain was already in progress. The rolling-restart primitive.
Result<proto::DrainAck> drain_server(const net::Endpoint& peer, double deadline_s = 0.0,
                                     double timeout_s = 5.0);

/// netslpr against a durable server: one PROBE round trip reporting where
/// `request_id` sits (queued/running/terminal) plus the kernel's live
/// iteration/residual. With `fetch_result`, a terminal job's stored
/// SolveResult rides back in the reply.
Result<proto::ProbeReply> probe_request(const net::Endpoint& peer, std::uint64_t request_id,
                                        bool fetch_result = false, double timeout_s = 5.0);

/// netslwt against a durable server: poll PROBE until `request_id` reaches a
/// terminal state, then return its stored SolveResult (whose error_code the
/// caller still inspects). Connection failures are tolerated and retried —
/// the server may be mid-restart after a crash — and a MIGRATED result is
/// followed to the destination server transparently. Fails with kTimeout
/// when `budget_s` runs out first.
Result<proto::SolveResult> wait_for_job(const net::Endpoint& peer, std::uint64_t request_id,
                                        double budget_s, double poll_interval_s = 0.05);

}  // namespace ns::client
