#include "server/server.hpp"

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>

#include "common/bytepack.hpp"
#include "common/clock.hpp"
#include "common/log.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "dsl/specfile.hpp"
#include "dsl/value.hpp"
#include "linalg/rating.hpp"
#include "net/pool.hpp"
#include "server/builtin_problems.hpp"

namespace ns::server {

namespace {

using proto::encode_payload;
using proto::MessageType;

proto::SolveResult error_result(std::uint64_t request_id, ErrorCode code,
                                std::string message, double retry_after_s = 0.0) {
  proto::SolveResult result;
  result.request_id = request_id;
  result.error_code = static_cast<std::uint16_t>(code);
  result.error_message = std::move(message);
  result.retry_after_s = retry_after_s;
  return result;
}

// Decode one request frame as Req and send handle(request) back as `reply`.
// False drops the connection: a frame that does not decode is a protocol
// violation.
template <typename Req, typename Handle>
bool serve(const net::ReactorConnPtr& conn, const serial::Bytes& payload, MessageType reply,
           Handle&& handle) {
  serial::Decoder dec(payload);
  auto request = Req::decode(dec);
  if (!request.ok()) return false;
  return conn->send(static_cast<std::uint16_t>(reply),
                    encode_payload(handle(std::move(request).value())))
      .ok();
}

}  // namespace

Result<std::unique_ptr<ComputeServer>> ComputeServer::start(ServerConfig config) {
  if (config.speed_factor <= 0.0 || config.speed_factor > 1.0) {
    return make_error(ErrorCode::kBadArguments, "speed_factor must be in (0, 1]");
  }
  if (config.workers < 1) {
    return make_error(ErrorCode::kBadArguments, "workers must be >= 1");
  }

  double native = config.rating_override;
  if (native <= 0.0) {
    native = linalg::linpack_rating(/*n=*/160, /*repeats=*/2).mflops;
  }
  const double rated = native * config.speed_factor;

  auto listener = net::TcpListener::bind(config.listen);
  if (!listener.ok()) return listener.error();

  std::unique_ptr<ComputeServer> server(
      new ComputeServer(std::move(config), std::move(listener).value(), rated));
  register_builtin_problems(server->registry_, native);
  if (!server->config_.problem_filter.empty()) {
    server->registry_.retain_only(server->config_.problem_filter);
    if (server->registry_.size() == 0) {
      return make_error(ErrorCode::kBadArguments,
                        "problem_filter matches nothing in the catalogue");
    }
  }
  if (!server->config_.spec_overrides.empty()) {
    auto overrides = dsl::parse_spec_file(server->config_.spec_overrides);
    if (!overrides.ok()) return overrides.error();
    for (const auto& spec : overrides.value()) {
      NS_RETURN_IF_ERROR(server->registry_.override_spec(spec));
    }
  }

  if (server->config_.agents.empty()) {
    return make_error(ErrorCode::kBadArguments, "no agents configured");
  }
  // Durability: replay whatever the previous incarnation left behind and
  // open the journal before any traffic can arrive. Recovered jobs are
  // registered in active_jobs_ here — before the accept thread exists — so
  // a re-attaching client's first probe can never miss them.
  if (!server->config_.data_dir.empty()) {
    NS_RETURN_IF_ERROR(server->open_journal());
  }
  // Initial registration sweep: every configured agent gets one synchronous
  // try; startup succeeds if at least one lands. Unreachable agents stay in
  // the link table and the report thread keeps retrying them with backoff.
  server->maintain_registrations();
  if (server->server_id_.load() == proto::kInvalidServerId) {
    return make_error(ErrorCode::kAgentUnavailable,
                      "could not register with any of " +
                          std::to_string(server->config_.agents.size()) + " agent(s)");
  }

  // Granted jobs that no free thread picks up run here: per slot, at most
  // one thread computing plus one still sending its finished job's reply.
  server->job_pool_.start(0, 2 * server->config_.workers);
  // The reactor adopts the listener: reads and frame decode live on its
  // event loop, handlers (and the jobs they find free slots for) on its
  // elastic pool. Its idle sweep stays above the client pool's keep-alive
  // window so the client side discards idle connections first.
  net::ReactorConfig reactor_config;
  reactor_config.idle_timeout_s = std::max(server->config_.io_timeout_s, 5.0);
  reactor_config.guard = server->config_.guard;
  NS_RETURN_IF_ERROR(server->reactor_.start(
      std::move(server->listener_),
      [raw = server.get()](const net::ReactorConnPtr& conn, net::Message&& msg) {
        return raw->handle_message(conn, std::move(msg));
      },
      reactor_config));
  server->report_thread_ = std::thread([raw = server.get()] { raw->report_loop(); });
  // Recovered jobs join the queue in journal (= original admission) order;
  // EDF re-sorts by the decayed deadlines anyway.
  for (auto& job : std::exchange(server->recovered_jobs_, {})) {
    job->since_receipt.reset();
    server->run(server->submit(std::move(job)), /*this_thread_free=*/false);
  }
  return server;
}

ComputeServer::ComputeServer(ServerConfig config, net::TcpListener listener,
                             double rated_mflops)
    : config_(std::move(config)),
      listener_(std::move(listener)),
      rated_mflops_(rated_mflops),
      // Fresh per process lifetime: lets agents tell a restart (full revive)
      // from a periodic keep-alive refresh of the same process.
      incarnation_((static_cast<std::uint64_t>(now_seconds() * 1e6) ^ (config_.seed << 1)) | 1u),
      reregister_rng_(config_.seed ^ 0x9e3779b97f4a7c15ull),
      policy_(config_.admission, config_.workers, config_.max_queue),
      failure_rng_(config_.seed),
      background_load_(config_.background_load),
      metrics_(config_.name) {
  endpoint_ = listener_.endpoint();
  metrics_.concurrency_limit.set(static_cast<double>(config_.workers));
  governor_.configure(config_.mem);
  spill_.configure(config_.mem.spill_dir);
  metrics_.mem_budget.set(static_cast<double>(config_.mem.global_bytes));
  for (const auto& agent : config_.agents) {
    agent_links_.push_back(AgentLink{agent});
  }
}

ComputeServer::~ComputeServer() { stop(); }

Status ComputeServer::register_link(AgentLink& link, std::vector<net::Endpoint>* discovered) {
  proto::RegisterServer reg;
  reg.server_name = config_.name;
  reg.endpoint = endpoint_;
  reg.mflops = rated_mflops_;
  reg.problems = registry_.all_specs();
  reg.incarnation = incarnation_;
  auto reply = net::pool_round_trip(link.endpoint,
                                    static_cast<std::uint16_t>(MessageType::kRegisterServer),
                                    encode_payload(reg), config_.io_timeout_s,
                                    /*dial_timeout_s=*/5.0);
  if (!reply.ok()) return reply.error();
  if (reply.value().type != static_cast<std::uint16_t>(MessageType::kRegisterAck)) {
    return make_error(ErrorCode::kProtocol, "expected RegisterAck");
  }
  serial::Decoder dec(reply.value().payload);
  auto ack = proto::RegisterAck::decode(dec);
  if (!ack.ok()) return ack.error();
  link.id = ack.value().server_id;
  if (discovered != nullptr) {
    for (const auto& peer : ack.value().peer_agents) discovered->push_back(peer);
  }
  // The first agent to answer is the "primary" whose id server_id() reports.
  proto::ServerId expected = proto::kInvalidServerId;
  server_id_.compare_exchange_strong(expected, link.id);
  NS_INFO("server") << config_.name << " registered as id=" << link.id << " at "
                    << link.endpoint.to_string() << " rating=" << rated_mflops_
                    << " Mflop/s";
  return ok_status();
}

void ComputeServer::maintain_registrations() {
  std::lock_guard<std::mutex> links_lock(links_mu_);
  const double now = now_seconds();
  std::vector<net::Endpoint> discovered;
  for (auto& link : agent_links_) {
    if (now < link.next_attempt_time) continue;
    if (register_link(link, &discovered).ok()) {
      link.backoff_s = 0.0;
      if (config_.reregister_period_s > 0) {
        // Jittered so a fleet does not re-register in lockstep.
        link.next_attempt_time =
            now + config_.reregister_period_s * reregister_rng_.uniform(0.5, 1.5);
      } else {
        link.next_attempt_time = 1e300;  // legacy: register once, never again
      }
    } else {
      // Decorrelated-jitter backoff toward the dead agent; capped well below
      // the re-register period so a rebooted agent is re-learned promptly.
      link.backoff_s = std::min(
          1.0, reregister_rng_.uniform(0.05, std::max(0.05, link.backoff_s * 3.0)));
      link.next_attempt_time = now + link.backoff_s;
    }
  }
  // Adopt mesh peers the acks told us about (mesh growth is idempotent:
  // known endpoints are skipped).
  for (const auto& peer : discovered) {
    bool known = false;
    for (const auto& link : agent_links_) {
      if (link.endpoint == peer) {
        known = true;
        break;
      }
    }
    if (!known) {
      NS_INFO("server") << config_.name << " discovered peer agent " << peer.to_string();
      agent_links_.push_back(AgentLink{peer});
    }
  }
}

FailureSpec::Mode ComputeServer::roll_failure() {
  std::lock_guard<std::mutex> lock(failure_mu_);
  const std::int64_t seen = requests_seen_.fetch_add(1) + 1;
  if (config_.failure.mode == FailureSpec::Mode::kNone) return FailureSpec::Mode::kNone;
  if (config_.failure.after_requests >= 0 && seen > config_.failure.after_requests) {
    return config_.failure.mode;
  }
  if (config_.failure.probability > 0 && failure_rng_.bernoulli(config_.failure.probability)) {
    return config_.failure.mode;
  }
  return FailureSpec::Mode::kNone;
}

double ComputeServer::estimate_service_seconds(const proto::SolveRequest& request) const {
  const auto spec = registry_.spec(request.problem);
  if (!spec.has_value() || rated_mflops_ <= 0.0) return 0.0;
  const double flops = spec->predicted_flops(request.args);
  if (flops <= 0.0) return 0.0;
  // The rating already folds in speed_factor; background load stretches
  // service by (1 + L) under the processor-sharing model.
  return flops / (rated_mflops_ * 1e6) *
         (1.0 + std::max(background_load_.load(), 0.0));
}

void ComputeServer::unqueue_locked(const ActiveJob& job) {
  policy_.leave(job.request.client_id);
  metrics_.queue_depth.set(policy_.waiting());
}

void ComputeServer::dispatch_locked(Dispatched& out) {
  while (!stopping_.load() && running_jobs_ < policy_.concurrency_limit() &&
         !wait_queue_.empty()) {
    const auto it = wait_queue_.begin();
    const std::shared_ptr<ActiveJob> job = it->second;
    // A cancel trips the token before it takes the job off the queue; if we
    // reach the job first, it leaves exactly as the cancel would make it.
    if (job->token.cancelled()) {
      wait_queue_.erase(it);
      unqueue_locked(*job);
      out.refused.emplace_back(job, cancelled_in_queue(*job));
      continue;
    }
    const auto head = policy_.dequeue(job->enqueue_time, job->deadline_abs,
                                      job->est_service_s, wait_queue_.size(), now_seconds());
    metrics_.queue_sojourn_s.observe(head.sojourn_s);
    if (head.verdict != AdmissionPolicy::Verdict::kGrant) {
      // Sheds at dequeue reply retryably — another, less loaded server may
      // still make it — with a backpressure hint that damps re-enqueue
      // churn: without it the client's next attempt lands right back in
      // the same congested queue.
      const bool deadline = head.verdict == AdmissionPolicy::Verdict::kShedDeadline;
      if (deadline) {
        metrics_.shed_dequeue.inc();
        metrics_.shed.inc();
      } else {
        metrics_.shed_codel.inc();
      }
      if (head.backed_off) {
        metrics_.aimd_backoff.inc();
        metrics_.concurrency_limit.set(policy_.concurrency_limit());
      }
      const char* reason = deadline
                               ? "overload control: deadline budget lapsed in queue"
                               : "overload control: queue sojourn above CoDel target";
      auto result = error_result(job->request.request_id, ErrorCode::kServerOverloaded,
                                 reason, head.retry_after_s);
      result.queue_seconds = head.sojourn_s;
      NS_DEBUG("server") << config_.name << " shed queued request "
                         << result.request_id << " (" << reason << ")";
      wait_queue_.erase(it);
      unqueue_locked(*job);
      out.refused.emplace_back(job, std::move(result));
      continue;
    }

    // Memory gate: charge the working set (plus any spilled payload about
    // to be re-materialized) before granting the slot. When the charge does
    // not fit, stop dispatching — a completion will release bytes and rerun
    // this loop; EDF order is preserved by blocking on the head. Progress
    // guarantee: an otherwise-idle server force-charges its head-of-line
    // job (counted, may overshoot the budget) rather than deadlocking
    // against queued payloads that hold the budget.
    const std::uint64_t need = job->ws_bytes + job->spilled_bytes;
    if (need > 0 && !governor_.try_charge(need)) {
      if (running_jobs_ > 0) break;
      governor_.charge_forced(need);
      metrics_.mem_forced_charge.inc();
    }
    // From here every terminal path releases the charge with the job's own.
    job->mem_charged_bytes += need;
    wait_queue_.erase(it);
    unqueue_locked(*job);
    job->queued.store(false);
    ++running_jobs_;
    out.granted.push_back(job);
  }
}

bool ComputeServer::handle_message(const net::ReactorConnPtr& conn, net::Message&& msg) {
  if (stopping_.load()) return false;
  switch (static_cast<MessageType>(msg.type)) {
    case MessageType::kPing:
      return conn->send(static_cast<std::uint16_t>(MessageType::kPong), {}).ok();
    case MessageType::kMetricsQuery: {
      // A query that does not decode is answered with the whole registry.
      serial::Decoder dec(msg.payload);
      auto query = proto::MetricsQuery::decode(dec);
      proto::MetricsDump dump;
      dump.snapshot = metrics::Registry::instance().snapshot(
          query.ok() ? query.value().prefix : std::string{});
      return conn->send(static_cast<std::uint16_t>(MessageType::kMetricsDump),
                        encode_payload(dump))
          .ok();
    }
    case MessageType::kCancelRequest:
      return serve<proto::CancelRequest>(
          conn, msg.payload, MessageType::kCancelAck, [&](const proto::CancelRequest& cancel) {
            metrics_.cancel_requests.inc();
            proto::CancelAck ack;
            ack.request_id = cancel.request_id;
            ack.outcome = cancel_jobs(cancel.request_id);
            return ack;
          });
    case MessageType::kDrainRequest:
      return serve<proto::DrainRequest>(
          conn, msg.payload, MessageType::kDrainAck, [&](const proto::DrainRequest& drain) {
            proto::DrainAck ack;
            {
              std::lock_guard<std::mutex> lock(jobs_mu_);
              ack.running = static_cast<std::uint32_t>(running_jobs_);
              ack.queued = static_cast<std::uint32_t>(policy_.waiting());
            }
            ack.started = start_drain(drain.deadline_s);
            return ack;
          });
    case MessageType::kProbeRequest:
      return serve<proto::ProbeRequest>(conn, msg.payload, MessageType::kProbeReply,
                                        [&](const auto& probe) { return probe_job(probe); });
    case MessageType::kJobTransfer:
      return serve<proto::JobTransfer>(
          conn, msg.payload, MessageType::kTransferAck,
          [&](proto::JobTransfer transfer) { return accept_transfer(std::move(transfer)); });
    case MessageType::kCheckpointPut:
      return serve<proto::CheckpointPut>(
          conn, msg.payload, MessageType::kCheckpointPutAck,
          [&](proto::CheckpointPut put) { return accept_checkpoint(std::move(put)); });
    case MessageType::kCheckpointFetch:
      return serve<proto::CheckpointFetch>(
          conn, msg.payload, MessageType::kCheckpointFetchReply,
          [&](const auto& fetch) { return handle_checkpoint_fetch(fetch); });
    case MessageType::kSolveRequest:
      return handle_solve(conn, msg.payload);
    default:
      return false;  // protocol violation: drop
  }
}

bool ComputeServer::handle_solve(const net::ReactorConnPtr& conn,
                                 const serial::Bytes& payload) {
  const auto solve_result = static_cast<std::uint16_t>(MessageType::kSolveResult);
  serial::Decoder dec(payload);
  const Stopwatch since_receipt;
  // Decoding materializes the full argument set from untrusted bytes — the
  // single largest allocation on the request path. An allocation failure
  // here (real pressure or an armed mem::AllocFaultPlan) must convert into
  // a counted connection drop the client retries elsewhere, never
  // std::terminate.
  auto request = [&]() -> Result<proto::SolveRequest> {
    try {
      mem::alloc_trip("server.solve_decode");
      return proto::SolveRequest::decode(dec);
    } catch (const std::bad_alloc&) {
      metrics_.mem_bad_alloc.inc();
      return make_error(ErrorCode::kServerOverloaded,
                        "allocation failed decoding request");
    }
  }();
  if (!request.ok()) {
    (void)conn->send(solve_result,
                     encode_payload(error_result(0, request.error().code,
                                                 request.error().message)),
                     config_.link);
    return false;
  }
  const std::uint64_t request_id = request.value().request_id;
  auto reply_now = [&](ErrorCode code, const char* message) {
    return conn->send(solve_result, encode_payload(error_result(request_id, code, message)),
                      config_.link)
        .ok();
  };

  // Failure injection happens after the request is fully received — the
  // client has already paid the transfer cost, which is the expensive
  // failure the retry logic must absorb.
  switch (roll_failure()) {
    case FailureSpec::Mode::kCrash:
      NS_WARN("server") << config_.name << " injected crash";
      crashed_.store(true);
      stopping_.store(true);
      // The crash runs on a reactor pool thread, so it cannot join the
      // reactor from here; release the port asynchronously and let stop()
      // (from the owner) do the full teardown. handle_message rejects all
      // further frames meanwhile, and queued jobs drop their connections.
      reactor_.stop_accepting();
      for (auto& job : take_queued(/*cancelled_only=*/false)) abandon(job);
      return false;
    case FailureSpec::Mode::kDropRequest:
      NS_DEBUG("server") << config_.name << " injected connection drop";
      return false;
    case FailureSpec::Mode::kHangRequest:
      // The reply simply never leaves; the connection stays open and the
      // client's io timeout is the only way out. (Unlike the blocking
      // transport no thread is held hostage meanwhile.)
      NS_DEBUG("server") << config_.name << " injected hang";
      return true;
    case FailureSpec::Mode::kErrorReply:
      return reply_now(ErrorCode::kServerFailure, "injected failure");
    case FailureSpec::Mode::kNone:
      break;
  }

  metrics_.requests.inc();
  if (draining_.load()) {
    // Retryable: the client's failover moves this request to another
    // server, which is the whole point of draining.
    drain_rejected_.fetch_add(1);
    metrics_.drain_rejected.inc();
    return reply_now(ErrorCode::kServerOverloaded, "server draining");
  }
  // A job that insists on durability cannot run where the journal has
  // fail-stopped (or never existed). Shed retryably — the agent already
  // de-prefers this server (durable=false in workload reports), and the
  // client's retry finds a healthy peer. Accepting silently would turn the
  // client's durability requirement into a coin flip.
  if (request.value().require_durable &&
      (config_.data_dir.empty() || degraded_.load())) {
    metrics_.store_degraded_shed.inc();
    return reply_now(ErrorCode::kServerOverloaded,
                     "durability degraded: journal unavailable");
  }
  // Visible to CANCEL, PROBE and the drain sweep from admission to reply.
  auto job = std::make_shared<ActiveJob>();
  job->request = std::move(request).value();
  job->reply_to = conn->hold();
  job->since_receipt = since_receipt;
  {
    std::lock_guard<std::mutex> lock(active_jobs_mu_);
    active_jobs_.emplace(request_id, job);
  }
  // WAL discipline: the ADMITTED record (full request + remaining budget)
  // is on disk before the job enters the queue — from here on, a crash
  // cannot lose it.
  journal_admit(*job, job->request.deadline_s > 0.0
                          ? job->request.deadline_s - since_receipt.elapsed()
                          : 0.0);
  run(submit(std::move(job)), /*this_thread_free=*/true);
  return true;
}

ComputeServer::Dispatched ComputeServer::submit(std::shared_ptr<ActiveJob> job) {
  const proto::SolveRequest& request = job->request;
  const double est_service = estimate_service_seconds(request);
  job->payload_bytes = dsl::args_byte_size(request.args);
  job->ws_bytes = estimate_working_set_bytes(request);
  Dispatched out;
  std::unique_lock<std::mutex> lock(jobs_mu_);
  auto refuse = [&](const char* message, double retry_after_s) {
    out.refused.emplace_back(job, error_result(request.request_id,
                                               ErrorCode::kServerOverloaded, message,
                                               retry_after_s));
    return out;
  };
  // The deadline budget left, measured now: it shrinks while we work.
  auto remaining = [&] {
    return request.deadline_s > 0.0 ? request.deadline_s - job->since_receipt.elapsed()
                                     : AdmissionPolicy::kNoDeadline;
  };
  switch (policy_.admit(request.client_id, remaining(), est_service, job->readmit)) {
    case AdmissionPolicy::Admit::kAccept:
      break;
    case AdmissionPolicy::Admit::kQueueFull:
      metrics_.rejected.inc();
      return refuse("admission control: queue full", policy_.retry_after());
    case AdmissionPolicy::Admit::kQuota:
      metrics_.shed_quota.inc();
      return refuse("admission control: per-client quota exceeded", policy_.retry_after());
    case AdmissionPolicy::Admit::kInfeasible:
      metrics_.shed_admission.inc();
      metrics_.shed.inc();
      NS_DEBUG("server") << config_.name << " shed request " << request.request_id
                         << " at admission (predicted " << est_service << "s)";
      return refuse("admission control: predicted service time exceeds deadline budget",
                    0.0);
  }
  // Memory admission: the payload is charged to the governor before the
  // job may queue (the bytes already exist in RAM — the account must say
  // so), and a job whose payload + working set exceed the per-job budget
  // can never run here, so queueing it would only waste its deadline.
  // Both refusals shed retryably with a backpressure hint: the agent
  // already de-prefers this server (mem_free_bytes in workload reports),
  // so the client's retry lands on a peer with headroom. Recovered and
  // transferred-in jobs charge unconditionally — shedding them would
  // break the durability contract.
  if (job->payload_bytes > 0) {
    const std::uint64_t need = job->payload_bytes + job->ws_bytes;
    const bool oversized = governor_.governed() && need > governor_.per_job_budget();
    if (!job->readmit && (oversized || !governor_.try_charge(job->payload_bytes))) {
      mem_shed_.fetch_add(1);
      metrics_.mem_shed.inc();
      mem_dirty_.store(true);
      return refuse(oversized ? "memory governor: payload + working set exceed per-job budget"
                              : "memory governor: payload does not fit the budget",
                    policy_.retry_after());
    }
    if (job->readmit && !governor_.try_charge(job->payload_bytes)) {
      governor_.charge_forced(job->payload_bytes);
      metrics_.mem_forced_charge.inc();
    }
    job->mem_charged_bytes += job->payload_bytes;
  }
  // Stop and cancel act on the queue, so a job off it checks for them
  // itself before entering it. Stopped: no terminal record on purpose — a
  // stop with an open journal is indistinguishable from a crash for queued
  // jobs, and replay will re-admit them. Cancelled: never computed.
  auto stopped_or_cancelled = [&](bool counted) {
    if (!stopping_.load() && !job->token.cancelled()) return false;
    if (counted) unqueue_locked(*job);
    if (stopping_.load()) {
      lock.unlock();
      abandon(job);
    } else {
      out.refused.emplace_back(job, cancelled_in_queue(*job));
    }
    return true;
  };
  if (stopped_or_cancelled(/*counted=*/false)) return out;
  // Into the wait queue, in the policy's order: no-deadline jobs sort last
  // under EDF — they can afford to wait.
  metrics_.admit.inc();
  const double now = now_seconds();
  job->enqueue_time = now;
  job->deadline_abs =
      request.deadline_s > 0.0 ? now + remaining() : AdmissionPolicy::kNoDeadline;
  job->est_service_s = est_service;
  job->queue_key = policy_.enqueue(request.client_id, job->deadline_abs);
  wait_queue_.emplace(job->queue_key, job);
  metrics_.queue_depth.set(policy_.waiting());
  dispatch_locked(out);
  // Queued-but-cold payload spill: a job the dispatcher did not grant
  // immediately parks its encoded request on disk (through the vfs seam)
  // and releases the RAM charge, so the budget funds *running* jobs
  // instead of queue ballast. The job leaves the queue for the I/O, so
  // no dispatch, cancel or stop can act on it while jobs_mu_ is dropped;
  // it still counts as waiting.
  const auto queued_at = wait_queue_.find(job->queue_key);
  if (queued_at != wait_queue_.end() && should_spill_locked(*job)) {
    wait_queue_.erase(queued_at);
    lock.unlock();
    const bool parked = spill_job(job);
    lock.lock();
    if (parked) {
      governor_.release(job->payload_bytes);
      job->mem_charged_bytes -=
          std::min<std::uint64_t>(job->mem_charged_bytes, job->payload_bytes);
      job->spilled_bytes = job->payload_bytes;
    }
    if (stopped_or_cancelled(/*counted=*/true)) return out;
    wait_queue_.emplace(job->queue_key, job);
    // The freed bytes may be exactly what the memory-blocked head of the
    // queue was waiting for.
    dispatch_locked(out);
  }
  return out;
}

void ComputeServer::run(Dispatched dispatched, bool this_thread_free) {
  for (auto& [job, result] : dispatched.refused) complete(job, result);
  const auto& granted = dispatched.granted;
  for (std::size_t i = this_thread_free ? 1 : 0; i < granted.size(); ++i) {
    // The pool refuses work only once stop() has begun; execute() then
    // hands the slot back without running anything.
    if (!job_pool_.submit([this, job = granted[i]] { execute(job); })) execute(granted[i]);
  }
  if (this_thread_free && !granted.empty()) execute(granted.front());
}

void ComputeServer::execute(const std::shared_ptr<ActiveJob>& job) {
  const proto::SolveRequest& request = job->request;
  // A slot release hands what it grants to the pool: this thread still
  // owes its own job's reply, and the next job should not wait for it.
  auto release_slot = [&](bool succeeded, double elapsed) {
    Dispatched next;
    {
      std::lock_guard<std::mutex> lock(jobs_mu_);
      --running_jobs_;
      if (succeeded && policy_.on_success(elapsed)) {
        metrics_.concurrency_limit.set(policy_.concurrency_limit());
      }
      dispatch_locked(next);
    }
    run(std::move(next), /*this_thread_free=*/false);
  };
  if (stopping_.load() || job->token.cancelled()) {
    // Granted but not started: hand the slot to the next waiter. A cancel
    // that raced the grant still counts as cancelled-while-queued.
    release_slot(false, 0.0);
    if (stopping_.load()) {
      abandon(job);
    } else {
      complete(job, cancelled_in_queue(*job));
    }
    return;
  }
  // Re-materialize a spilled payload before touching the kernel: the
  // dispatcher already charged the bytes at grant, so the reload cannot
  // overrun the budget. A reload failure (storage fault, bit rot, injected
  // bad_alloc) gives the slot back and sheds retryably — the client's
  // resubmission carries the payload again.
  if (job->spilled) {
    if (auto reloaded = reload_spilled(job); !reloaded.ok()) {
      release_slot(false, 0.0);
      metrics_.mem_spill_reload_errors.inc();
      mem_shed_.fetch_add(1);
      metrics_.mem_shed.inc();
      NS_WARN("server") << config_.name << " spill reload failed for request "
                        << request.request_id << ": " << reloaded.error().to_string();
      complete(job, error_result(request.request_id, ErrorCode::kServerOverloaded,
                                 "memory governor: spill reload failed"));
      return;
    }
  }
  proto::SolveResult result;
  result.request_id = request.request_id;
  const double queue_wait = now_seconds() - job->enqueue_time;
  result.queue_seconds = queue_wait;
  trace::record_span(request.trace_id, "server.queue_wait",
                     job->since_receipt.elapsed() - queue_wait, queue_wait);

  // Checkpoint wiring: the kernel snapshots its loop state every interval;
  // with a journal open each snapshot also lands as a CHECKPOINT record, and
  // with replicas configured each snapshot is also streamed to the peer set.
  job->ckpt.set_interval(config_.checkpoint_interval);
  {
    std::lock_guard<std::mutex> journal_lock(journal_mu_);
    const bool journal_ckpt = journal_.is_open() && job->journaled;
    const bool replicate = !config_.replicas.empty();
    if (journal_ckpt || replicate) {
      // Raw pointer on purpose: capturing the shared_ptr would cycle
      // (job -> ckpt -> callback -> job). The callback only fires from the
      // kernel inside execute(), whose caller holds the shared_ptr.
      job->ckpt.set_on_snapshot([this, id = result.request_id, journal_ckpt,
                                 replicate, jp = job.get()](
                                    const checkpoint::Snapshot& snap) {
        if (journal_ckpt) {
          JournalRecord rec;
          rec.type = JournalRecordType::kCheckpoint;
          rec.request_id = id;
          rec.wall_micros = wall_micros();
          rec.iteration = snap.iteration;
          rec.residual = snap.residual;
          rec.data = snap.state;
          journal_append(rec);
        }
        if (replicate) replicate_checkpoint(*jp, snap);
      });
    }
  }
  // STARTED before execute (once per job — a recovered job that already has
  // its STARTED record on disk carries started=true from replay).
  if (!job->started.exchange(true) && job->journaled) {
    JournalRecord rec;
    rec.type = JournalRecordType::kStarted;
    rec.request_id = result.request_id;
    rec.wall_micros = wall_micros();
    journal_append(rec);
  }
  if (job->ckpt.has_restore()) {
    jobs_resumed_.fetch_add(1);
    metrics_.jobs_resumed.inc();
    std::uint64_t seen = last_resume_iteration_.load();
    const std::uint64_t at = job->ckpt.restore_iteration();
    while (at > seen && !last_resume_iteration_.compare_exchange_weak(seen, at)) {
    }
    NS_INFO("server") << config_.name << " resuming job " << result.request_id
                      << " from checkpoint iteration " << at;
  }

  const Stopwatch watch;
  Result<std::vector<dsl::DataObject>> outputs =
      [&]() -> Result<std::vector<dsl::DataObject>> {
    // Bind the job's tokens for this thread: the kernels' checkpoints (and
    // the simwork/busywork slices) poll the cancel token and unwind with
    // kCancelled, and tick the checkpoint token at the same loop heads.
    cancel::ScopedToken bound(&job->token);
    checkpoint::ScopedToken ckpt_bound(&job->ckpt);
    // Kernels allocate result operands sized by the problem; a bad_alloc
    // here (or an armed trip point) is an overload condition the client
    // should retry elsewhere, not a process abort.
    try {
      mem::alloc_trip("server.execute");
      return registry_.execute(request.problem, request.args);
    } catch (const std::bad_alloc&) {
      metrics_.mem_bad_alloc.inc();
      return make_error(ErrorCode::kServerOverloaded,
                        "allocation failed during execute");
    }
  }();
  double elapsed = watch.elapsed();
  // Heterogeneity emulation: a speed-s server takes 1/s as long, and a
  // synthetic background load of L competing jobs stretches service by
  // (1 + L) under processor sharing. Sliced so a cancel (or stop) does not
  // have to wait out a long stretch.
  const double bg = background_load_.load();
  const double stretch = (1.0 / config_.speed_factor) * (1.0 + std::max(bg, 0.0)) - 1.0;
  if (stretch > 0.0 && outputs.ok()) {
    double extra = elapsed * stretch;
    while (extra > 0.0 && !stopping_.load()) {
      if (job->token.cancelled()) {
        outputs = cancel::cancelled_error("service-time stretch");
        break;
      }
      const double slice = std::min(extra, 0.01);
      if (config_.slowdown_mode == SlowdownMode::kSpin) {
        elapsed += busy_spin_seconds(slice);
      } else {
        const Stopwatch extra_watch;
        sleep_seconds(slice);
        elapsed += extra_watch.elapsed();
      }
      extra -= slice;
    }
  }

  // Release the byte account *before* freeing the slot: the dispatch below
  // runs with running_jobs_ back at 0 when this was the only job, and must
  // see this job's bytes gone or it would force-charge the next grant past
  // the budget. Idempotent — complete() / abandon() release again.
  release_job_memory(job);
  release_slot(outputs.ok(), elapsed);

  result.exec_seconds = elapsed;
  metrics_.compute_s.observe(elapsed);
  trace::record_span(request.trace_id, "server.compute",
                     job->since_receipt.elapsed() - elapsed, elapsed);
  if (outputs.ok()) {
    result.outputs = std::move(outputs).value();
    completed_.fetch_add(1);
    metrics_.completed.inc();
  } else if (outputs.error().code == ErrorCode::kCancelled) {
    // The partial outputs died with the kernel's stack frame; nothing of
    // the cancelled attempt is published.
    cancelled_running_.fetch_add(1);
    metrics_.cancelled_running.inc();
    NS_DEBUG("server") << config_.name << " cancelled running request "
                       << result.request_id << " after " << elapsed << "s";
    result.error_code = static_cast<std::uint16_t>(ErrorCode::kCancelled);
    result.error_message = outputs.error().message;
    // Drain-time migration: the drain sweep marked this job for hand-off
    // before tripping its token. Ship the latest checkpoint to a peer; on
    // success the reply becomes kMigrated + a forwarding address instead
    // of a bare cancel, and no compute is lost.
    if (job->migrate.load() && config_.migrate_on_drain && !crash_mode_.load()) {
      (void)migrate_job(*job, result);
    }
  } else {
    metrics_.exec_errors.inc();
    result.error_code = static_cast<std::uint16_t>(outputs.error().code);
    result.error_message = outputs.error().message;
  }
  complete(job, result);
}

void ComputeServer::complete(const std::shared_ptr<ActiveJob>& job,
                             const proto::SolveResult& result) {
  if (crash_mode_.load()) {
    // Crashed: the journal is frozen and the reply must not leave — to the
    // outside world this job died with the process.
    abandon(job);
    return;
  }
  finish_job(job, result);
  if (const auto conn = std::move(job->reply_to)) {
    if (!conn->send(static_cast<std::uint16_t>(MessageType::kSolveResult),
                    encode_payload(result), config_.link)
             .ok()) {
      conn->close();
    }
  }
}

void ComputeServer::abandon(const std::shared_ptr<ActiveJob>& job) {
  // The byte account is process memory, not durable state, so it is
  // released even when the emulated-dead server shares this address space.
  release_job_memory(job);
  erase_active_job(job, job->request.request_id);
  if (const auto conn = std::move(job->reply_to)) conn->close();
}

std::vector<std::shared_ptr<ComputeServer::ActiveJob>> ComputeServer::take_queued(
    bool cancelled_only) {
  std::vector<std::shared_ptr<ActiveJob>> taken;
  std::lock_guard<std::mutex> lock(jobs_mu_);
  for (auto it = wait_queue_.begin(); it != wait_queue_.end();) {
    if (cancelled_only && !it->second->token.cancelled()) {
      ++it;
      continue;
    }
    unqueue_locked(*it->second);
    taken.push_back(std::move(it->second));
    it = wait_queue_.erase(it);
  }
  return taken;
}

proto::SolveResult ComputeServer::cancelled_in_queue(const ActiveJob& job) {
  cancelled_queued_.fetch_add(1);
  metrics_.cancelled_queued.inc();
  NS_DEBUG("server") << config_.name << " dropped queued request "
                     << job.request.request_id << " (cancelled)";
  return error_result(job.request.request_id, ErrorCode::kCancelled,
                      "cancelled while queued");
}

double ComputeServer::current_workload() const {
  std::lock_guard<std::mutex> lock(jobs_mu_);
  return static_cast<double>(running_jobs_ + policy_.waiting()) + background_load_.load();
}

void ComputeServer::send_workload_report(double workload) {
  // Queue-pressure piggyback: the agent steers new work away from servers
  // whose queues are hot before they start shedding.
  double sojourn_p95 = 0.0;
  double free_slots = 0.0;
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    sojourn_p95 = policy_.sojourn_p95();
    free_slots = static_cast<double>(std::max(0, policy_.concurrency_limit() - running_jobs_));
  }
  // Fan out to every agent we ever registered with; ids are agent-local so
  // each link carries its own. Reports ride the keep-alive pool — one warm
  // connection per agent instead of a dial per period. A dead agent costs
  // one failed dial; the next period retries.
  std::lock_guard<std::mutex> links_lock(links_mu_);
  for (const auto& link : agent_links_) {
    if (link.id == proto::kInvalidServerId) continue;
    proto::WorkloadReport report;
    report.server_id = link.id;
    report.workload = workload;
    report.completed = completed_.load();
    report.sojourn_p95_s = sojourn_p95;
    report.free_slots = free_slots;
    report.durable = config_.data_dir.empty() ? -1 : (degraded_.load() ? 0 : 1);
    // Memory tri-state mirrors durable: -1 = ungoverned / never configured
    // (the steady state, left alone by the predictor), otherwise the live
    // headroom and whether payloads are currently parked on disk.
    report.mem_free_bytes =
        governor_.governed() ? static_cast<double>(governor_.headroom()) : -1.0;
    report.spill_active =
        spill_.enabled() ? (spilled_jobs_.load() > 0 ? 1 : 0) : -1;
    (void)net::pool_post(link.endpoint,
                         static_cast<std::uint16_t>(MessageType::kWorkloadReport),
                         encode_payload(report), /*dial_timeout_s=*/1.0);
  }
}

void ComputeServer::report_loop() {
  double last_sent = -1e300;  // force an initial report
  while (!stopping_.load()) {
    // A draining server has deregistered: re-registering or reporting load
    // would resurrect its record and pull traffic back in.
    if (!draining_.load()) {
      // Agent-restart resilience: refresh due registrations (idempotent at
      // the agent; a rebooted agent re-learns us this way) and keep retrying
      // agents that were down at startup.
      maintain_registrations();
      const double workload = current_workload();
      // A durability transition is news the agent must hear regardless of
      // how little the load moved — it changes where checkpointable work
      // should land.
      // Memory pressure transitions (spill engage/release) are likewise
      // routing-relevant news the agent should not wait a threshold for.
      if (std::abs(workload - last_sent) >= config_.report_threshold ||
          last_sent == -1e300 || durable_dirty_.exchange(false) ||
          mem_dirty_.exchange(false)) {
        send_workload_report(workload);
        last_sent = workload;
      }
      metrics_.mem_accounted.set(static_cast<double>(governor_.accounted()));
      metrics_.mem_peak.set(static_cast<double>(governor_.peak()));
      metrics_.mem_spill_active.set(spilled_jobs_.load() > 0 ? 1.0 : 0.0);
    }
    // Sleep in small steps so stop() is prompt.
    const Deadline next(config_.report_period_s);
    while (!next.expired() && !stopping_.load()) {
      sleep_seconds(std::min(0.02, next.remaining()));
    }
  }
}

void ComputeServer::inject_failure(const FailureSpec& failure) {
  std::lock_guard<std::mutex> lock(failure_mu_);
  config_.failure = failure;
}

void ComputeServer::set_background_load(double load) { background_load_.store(load); }

proto::CancelOutcome ComputeServer::cancel_jobs(std::uint64_t request_id) {
  // request_ids are client-minted: trip every job carrying the id and report
  // the most-advanced state found. An unknown id reports kCompleted — the
  // reply already left (or never arrived), so there is nothing to reclaim.
  auto outcome = proto::CancelOutcome::kCompleted;
  {
    std::lock_guard<std::mutex> lock(active_jobs_mu_);
    auto [it, end] = active_jobs_.equal_range(request_id);
    for (; it != end; ++it) {
      it->second->token.cancel();
      if (!it->second->queued.load()) {
        outcome = proto::CancelOutcome::kRunning;
      } else if (outcome == proto::CancelOutcome::kCompleted) {
        outcome = proto::CancelOutcome::kQueued;
      }
    }
  }
  // Queued jobs hold no thread to notice the token: finish them here.
  // Running ones unwind at their next kernel checkpoint.
  for (auto& job : take_queued(/*cancelled_only=*/true)) {
    complete(job, cancelled_in_queue(*job));
  }
  return outcome;
}

// ---- durability ----

Status ComputeServer::open_journal() {
  if (::mkdir(config_.data_dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return make_error(ErrorCode::kInternal, "cannot create data_dir " +
                                                config_.data_dir + ": " +
                                                std::strerror(errno));
  }
  const std::string path = config_.data_dir + "/" + config_.name + ".journal";
  auto replay = replay_journal(path);
  if (!replay.ok()) return replay.error();
  NS_RETURN_IF_ERROR(journal_.open(path, config_.journal_fsync));
  restore_from_replay(std::move(replay).value());
  // Startup compaction: the replayed history collapses to one record chain
  // per live job plus the stored results; downtime noise drops out.
  {
    std::lock_guard<std::mutex> lock(journal_mu_);
    (void)journal_.rewrite(collect_live_records_locked());
  }
  return ok_status();
}

void ComputeServer::restore_from_replay(ReplaySummary replay) {
  if (replay.records == 0 && replay.skipped == 0) return;
  NS_INFO("server") << config_.name << " journal replay: " << replay.records
                    << " record(s), " << replay.skipped << " skipped, "
                    << replay.unfinished.size() << " unfinished job(s), "
                    << replay.completed.size() << " stored result(s)";
  for (auto& [id, result] : replay.completed) {
    store_result(id, result);
  }
  const std::int64_t now_us = wall_micros();
  for (auto& recovered : replay.unfinished) {
    const std::uint64_t id = recovered.request.request_id;
    auto job = std::make_shared<ActiveJob>();
    job->readmit = true;
    job->journaled = true;
    job->admitted_wall_us = recovered.admitted_wall_micros;
    job->started.store(recovered.started);
    // Deadline budgets decay across the downtime: the client's clock kept
    // running while this server was dead.
    if (recovered.deadline_remaining_s > 0.0) {
      const double downtime =
          static_cast<double>(now_us - recovered.admitted_wall_micros) / 1e6;
      const double remaining = recovered.deadline_remaining_s - downtime;
      if (remaining <= 0.0) {
        // Nothing left to spend. Journal the terminal record and store a
        // DEADLINE_EXCEEDED result so a re-attaching probe learns the fate.
        const auto result = error_result(id, ErrorCode::kDeadlineExceeded,
                                         "deadline budget lapsed during server downtime");
        {
          std::lock_guard<std::mutex> lock(journal_mu_);
          JournalRecord rec;
          rec.type = JournalRecordType::kCompleted;
          rec.request_id = id;
          rec.wall_micros = now_us;
          rec.data = encode_payload(result);
          journal_append_locked(rec);
          store_result(id, result);
        }
        continue;
      }
      recovered.request.deadline_s = remaining;
    } else {
      recovered.request.deadline_s = 0.0;
    }
    job->admit_deadline_remaining_s = recovered.request.deadline_s;
    job->request = std::move(recovered.request);
    if (recovered.snapshot.iteration > 0) {
      job->ckpt.install_restore(std::move(recovered.snapshot));
    }
    {
      std::lock_guard<std::mutex> lock(active_jobs_mu_);
      active_jobs_.emplace(id, job);
    }
    jobs_recovered_.fetch_add(1);
    metrics_.jobs_recovered.inc();
    recovered_jobs_.push_back(std::move(job));
  }
}

std::uint64_t ComputeServer::journal_appends() const {
  std::lock_guard<std::mutex> lock(journal_mu_);
  return journal_.appends();
}

void ComputeServer::journal_append_locked(const JournalRecord& record) {
  if (!journal_.is_open()) return;
  if (journal_.append(record).ok()) {
    metrics_.journal_appends.inc();
  } else {
    // The journal fail-stopped itself (see Journal::append): the fd is
    // closed and every later append fails fast. Degrade loudly instead of
    // pretending records still land.
    metrics_.store_write_errors.inc();
    enter_degraded_locked("journal append failed");
  }
}

void ComputeServer::enter_degraded_locked(const char* what) {
  if (degraded_.exchange(true)) return;
  metrics_.store_degraded.set(1.0);
  durable_dirty_.store(true);  // report_loop pushes the news immediately
  NS_WARN("server") << config_.name << " durability degraded: " << what << " ("
                    << journal_.path()
                    << ") — running non-durable, shedding durable-required jobs";
}

void ComputeServer::journal_append(const JournalRecord& record) {
  std::lock_guard<std::mutex> lock(journal_mu_);
  journal_append_locked(record);
}

void ComputeServer::journal_admit(ActiveJob& job, double deadline_remaining_s) {
  std::lock_guard<std::mutex> lock(journal_mu_);
  if (!journal_.is_open()) return;
  job.journaled = true;
  job.admitted_wall_us = wall_micros();
  job.admit_deadline_remaining_s = std::max(deadline_remaining_s, 0.0);
  JournalRecord rec;
  rec.type = JournalRecordType::kAdmitted;
  rec.request_id = job.request.request_id;
  rec.wall_micros = job.admitted_wall_us;
  rec.deadline_remaining_s = job.admit_deadline_remaining_s;
  rec.data = encode_payload(job.request);
  journal_append_locked(rec);
}

void ComputeServer::finish_job(const std::shared_ptr<ActiveJob>& job,
                               const proto::SolveResult& result) {
  release_job_memory(job);
  {
    std::lock_guard<std::mutex> lock(journal_mu_);
    const auto code = static_cast<ErrorCode>(result.error_code);
    // "Answered" = the job reached a fate a re-attaching client should see
    // (success, a hard failure, or a migration forwarding address).
    // Retryable rejections are journaled kCancelled: the client was told to
    // go elsewhere, so replay must not resurrect the job here.
    const bool answered = code == ErrorCode::kOk || !is_retryable(code);
    if (journal_.is_open() && job->journaled) {
      JournalRecord rec;
      rec.type = answered ? JournalRecordType::kCompleted
                          : JournalRecordType::kCancelled;
      rec.request_id = result.request_id;
      rec.wall_micros = wall_micros();
      if (answered) rec.data = encode_payload(result);
      journal_append_locked(rec);
    }
    if (answered && (job->journaled || job->started.load())) {
      store_result(result.request_id, result);
    }
    erase_active_job(job, result.request_id);
  }
  maybe_compact();
}

void ComputeServer::store_result(std::uint64_t request_id,
                                 const proto::SolveResult& result) {
  std::lock_guard<std::mutex> lock(results_mu_);
  if (results_.insert_or_assign(request_id, result).second) {
    results_order_.push_back(request_id);
    while (results_order_.size() > kMaxStoredResults) {
      results_.erase(results_order_.front());
      results_order_.pop_front();
    }
  }
}

void ComputeServer::maybe_compact() {
  if (config_.journal_compact_bytes == 0) return;
  std::lock_guard<std::mutex> lock(journal_mu_);
  if (!journal_.is_open() || journal_.byte_size() < config_.journal_compact_bytes) {
    return;
  }
  if (!journal_.rewrite(collect_live_records_locked()).ok()) {
    NS_WARN("server") << config_.name << " journal compaction failed";
    if (journal_.poisoned()) {
      // Rewrite lost the live journal (reopen after rename failed): no
      // record will ever land again, so this is a durability transition.
      metrics_.store_write_errors.inc();
      enter_degraded_locked("journal compaction failed");
    }
  }
}

std::vector<JournalRecord> ComputeServer::collect_live_records_locked() {
  // Caller holds journal_mu_, which freezes the terminal protocol: every
  // job is either still in active_jobs_ (re-journal its ADMITTED chain) or
  // has its result in results_ (re-journal COMPLETED) — never in between.
  std::vector<JournalRecord> live;
  const std::int64_t now_us = wall_micros();
  {
    std::lock_guard<std::mutex> jobs_lock(active_jobs_mu_);
    for (const auto& [id, job] : active_jobs_) {
      if (!job->journaled) continue;
      JournalRecord admitted;
      admitted.type = JournalRecordType::kAdmitted;
      admitted.request_id = id;
      admitted.wall_micros = job->admitted_wall_us;
      admitted.deadline_remaining_s = job->admit_deadline_remaining_s;
      if (job->spilled) {
        // The parked payload lives on disk; the spill file holds the full
        // encoded SolveRequest, so it doubles as the ADMITTED record. If the
        // file is unreadable the reload path will shed this job retryably,
        // so the argless fallback below only ever feeds a kCancelled chain.
        auto spilled = spill_.load(job->request.request_id);
        admitted.data =
            spilled.ok() ? std::move(spilled).value() : encode_payload(job->request);
      } else {
        admitted.data = encode_payload(job->request);
      }
      live.push_back(std::move(admitted));
      if (job->started.load()) {
        JournalRecord started;
        started.type = JournalRecordType::kStarted;
        started.request_id = id;
        started.wall_micros = now_us;
        live.push_back(std::move(started));
      }
      if (job->ckpt.has_snapshot()) {
        const auto snap = job->ckpt.latest();
        JournalRecord ckpt;
        ckpt.type = JournalRecordType::kCheckpoint;
        ckpt.request_id = id;
        ckpt.wall_micros = now_us;
        ckpt.iteration = snap.iteration;
        ckpt.residual = snap.residual;
        ckpt.data = snap.state;
        live.push_back(std::move(ckpt));
      }
    }
  }
  {
    std::lock_guard<std::mutex> results_lock(results_mu_);
    for (const std::uint64_t id : results_order_) {
      const auto it = results_.find(id);
      if (it == results_.end()) continue;
      JournalRecord done;
      done.type = JournalRecordType::kCompleted;
      done.request_id = id;
      done.wall_micros = now_us;
      done.data = encode_payload(it->second);
      live.push_back(std::move(done));
    }
  }
  return live;
}

void ComputeServer::erase_active_job(const std::shared_ptr<ActiveJob>& job,
                                     std::uint64_t request_id) {
  std::lock_guard<std::mutex> lock(active_jobs_mu_);
  auto [it, end] = active_jobs_.equal_range(request_id);
  for (; it != end; ++it) {
    if (it->second == job) {
      active_jobs_.erase(it);
      return;
    }
  }
}

// ---- memory governance ----

std::uint64_t ComputeServer::estimate_working_set_bytes(
    const proto::SolveRequest& request) const {
  // Working set ~ the decoded operands plus outputs of comparable size —
  // the resident footprint while the kernel runs. The factor and floor are
  // config knobs; the estimate only needs to be monotone in problem size
  // for the budget arithmetic (and the agent's feasibility term, which
  // mirrors this 2x) to hold.
  const double payload = static_cast<double>(dsl::args_byte_size(request.args));
  const double estimate = config_.mem.working_set_factor * payload;
  return std::max<std::uint64_t>(static_cast<std::uint64_t>(estimate),
                                 config_.mem.working_set_floor_bytes);
}

bool ComputeServer::should_spill_locked(const ActiveJob& job) const {
  if (!spill_.enabled() || job.spilled) return false;
  if (job.payload_bytes < config_.mem.spill_min_bytes) return false;
  if (!governor_.governed()) return true;  // spill_dir set, no budget: always park
  // Governed: only pay the disk round trip once the account is actually
  // under pressure.
  const double watermark =
      config_.mem.spill_watermark * static_cast<double>(governor_.budget());
  return static_cast<double>(governor_.accounted()) >= watermark;
}

bool ComputeServer::spill_job(const std::shared_ptr<ActiveJob>& job) {
  // The whole encoded SolveRequest goes to disk (not just the args): the
  // spill file then doubles as the ADMITTED payload for a journal
  // compaction that runs while the job is parked.
  serial::Bytes encoded;
  try {
    mem::alloc_trip("server.spill_save");
    encoded = encode_payload(job->request);
  } catch (const std::bad_alloc&) {
    metrics_.mem_bad_alloc.inc();
    return false;  // stay in RAM; the payload is still charged
  }
  if (!spill_.save(job->request.request_id, encoded).ok()) {
    // save() already degraded the store; every later job skips the spill
    // path entirely (graceful in-RAM-only degradation).
    NS_WARN("server") << config_.name << " payload spill degraded to in-RAM-only";
    return false;
  }
  {
    // Swap the args out under active_jobs_mu_ so a concurrent journal
    // compaction sees either the in-RAM request or the spilled flag —
    // never a half-cleared argument vector.
    std::lock_guard<std::mutex> lock(active_jobs_mu_);
    job->request.args.clear();
    job->request.args.shrink_to_fit();
    job->spilled = true;
  }
  spilled_jobs_.fetch_add(1);
  mem_dirty_.store(true);
  metrics_.mem_spilled_bytes.inc(job->payload_bytes);
  return true;
}

Status ComputeServer::reload_spilled(const std::shared_ptr<ActiveJob>& job) {
  auto bytes = spill_.load(job->request.request_id);
  if (!bytes.ok()) return bytes.error();
  serial::Decoder dec(bytes.value());
  auto request = [&]() -> Result<proto::SolveRequest> {
    try {
      mem::alloc_trip("server.spill_reload");
      return proto::SolveRequest::decode(dec);
    } catch (const std::bad_alloc&) {
      metrics_.mem_bad_alloc.inc();
      return make_error(ErrorCode::kServerOverloaded,
                        "allocation failed reloading spilled payload");
    }
  }();
  if (!request.ok()) return request.error();
  {
    std::lock_guard<std::mutex> lock(active_jobs_mu_);
    job->request.args = std::move(request.value().args);
    job->spilled = false;
  }
  spilled_jobs_.fetch_sub(1);
  mem_dirty_.store(true);
  spill_.remove(job->request.request_id);
  metrics_.mem_spill_reloads.inc();
  return ok_status();
}

void ComputeServer::release_job_memory(const std::shared_ptr<ActiveJob>& job) {
  bool was_spilled = false;
  {
    // Clear the flag before unlinking so a racing compaction never reads a
    // spilled=true job whose file is already gone.
    std::lock_guard<std::mutex> lock(active_jobs_mu_);
    was_spilled = job->spilled;
    job->spilled = false;
  }
  if (was_spilled) {
    spilled_jobs_.fetch_sub(1);
    mem_dirty_.store(true);
    spill_.remove(job->request.request_id);
  }
  if (job->mem_charged_bytes > 0) {
    governor_.release(job->mem_charged_bytes);
    job->mem_charged_bytes = 0;
  }
}

proto::ProbeReply ComputeServer::probe_job(const proto::ProbeRequest& probe) {
  proto::ProbeReply reply;
  reply.request_id = probe.request_id;
  {
    // Most-advanced state across duplicates (request_ids are client-minted,
    // collisions possible): running beats queued beats unknown.
    std::lock_guard<std::mutex> lock(active_jobs_mu_);
    auto [it, end] = active_jobs_.equal_range(probe.request_id);
    for (; it != end; ++it) {
      const auto& job = it->second;
      if (!job->queued.load()) {
        reply.state = proto::JobState::kRunning;
        reply.iteration = job->ckpt.iteration();
        reply.residual = job->ckpt.residual();
      } else if (reply.state == proto::JobState::kUnknown) {
        reply.state = proto::JobState::kQueued;
      }
    }
  }
  if (reply.state != proto::JobState::kUnknown) return reply;
  std::lock_guard<std::mutex> lock(results_mu_);
  const auto it = results_.find(probe.request_id);
  if (it == results_.end()) return reply;  // kUnknown
  reply.state = it->second.error_code == 0 ? proto::JobState::kCompleted
                                           : proto::JobState::kFailed;
  if (probe.fetch_result) {
    reply.has_result = true;
    reply.result = it->second;
  }
  return reply;
}

proto::TransferAck ComputeServer::accept_transfer(proto::JobTransfer transfer) {
  proto::TransferAck ack;
  ack.request_id = transfer.request.request_id;
  if (draining_.load() || stopping_.load()) {
    ack.reason = "server draining";
    return ack;
  }
  if (!registry_.spec(transfer.request.problem).has_value()) {
    ack.reason = "problem not in catalogue: " + transfer.request.problem;
    return ack;
  }
  NS_INFO("server") << config_.name << " accepted transferred job " << ack.request_id
                    << " from " << transfer.from_server << " at checkpoint iteration "
                    << transfer.checkpoint_iteration;
  transfer.request.deadline_s = transfer.deadline_remaining_s;
  checkpoint::Snapshot snap;
  snap.iteration = transfer.checkpoint_iteration;
  snap.residual = transfer.checkpoint_residual;
  snap.state = std::move(transfer.checkpoint_state);
  readmit(std::move(transfer.request), std::move(snap));
  ack.accepted = true;
  return ack;
}

void ComputeServer::readmit(proto::SolveRequest request, checkpoint::Snapshot snap) {
  metrics_.requests.inc();
  auto job = std::make_shared<ActiveJob>();
  job->readmit = true;
  job->request = std::move(request);
  if (snap.iteration > 0) job->ckpt.install_restore(snap);
  {
    std::lock_guard<std::mutex> lock(active_jobs_mu_);
    active_jobs_.emplace(job->request.request_id, job);
  }
  journal_admit(*job, job->request.deadline_s);
  if (job->journaled && snap.iteration > 0) {
    // Persist the carried snapshot too: a crash right after the hand-off
    // must still resume mid-iteration, not from scratch.
    JournalRecord rec;
    rec.type = JournalRecordType::kCheckpoint;
    rec.request_id = job->request.request_id;
    rec.wall_micros = wall_micros();
    rec.iteration = snap.iteration;
    rec.residual = snap.residual;
    rec.data = std::move(snap.state);
    journal_append(rec);
  }
  // Off this thread: the peer or client is waiting for its answer.
  run(submit(std::move(job)), /*this_thread_free=*/false);
}

void ComputeServer::replicate_checkpoint(ActiveJob& job,
                                         const checkpoint::Snapshot& snap) {
  if (job.repl_peers.size() != config_.replicas.size()) {
    job.repl_peers.assign(config_.replicas.size(), ActiveJob::ReplPeer{});
  }
  const double now = now_seconds();
  const bool has_deadline = job.deadline_abs < AdmissionPolicy::kNoDeadline;
  const double deadline_remaining =
      has_deadline ? std::max(job.deadline_abs - now, 0.0) : 0.0;

  // Frames are built lazily and shared across peers: most snapshots go to
  // every peer in the same shape, so compress once.
  serial::Bytes full_frame;   // self-contained (compressed or raw)
  serial::Bytes delta_frame;  // against repl_prev_state, if viable
  auto full = [&]() -> const serial::Bytes& {
    if (full_frame.empty()) {
      full_frame = config_.checkpoint_compress ? bytepack::pack(snap.state)
                                               : bytepack::pack_raw(snap.state);
    }
    return full_frame;
  };
  const bool have_prev =
      job.repl_prev_iteration > 0 && job.repl_prev_state.size() == snap.state.size();
  auto delta = [&]() -> const serial::Bytes& {
    if (delta_frame.empty()) {
      delta_frame = bytepack::pack(snap.state, &job.repl_prev_state);
    }
    return delta_frame;
  };

  for (std::size_t i = 0; i < config_.replicas.size(); ++i) {
    auto& peer = job.repl_peers[i];
    if (now < peer.retry_at) continue;  // recent failure: don't stall the kernel

    // A delta only helps if the peer holds exactly the base we would diff
    // against, and the codec actually produced a delta (it falls back to a
    // self-contained frame when the delta wouldn't shrink).
    const bool can_delta = config_.checkpoint_compress && have_prev &&
                           peer.acked_iteration == job.repl_prev_iteration &&
                           bytepack::is_delta(delta());

    proto::CheckpointPut put;
    put.origin = config_.name;
    put.request_id = job.request.request_id;
    put.deadline_remaining_s = deadline_remaining;
    put.iteration = snap.iteration;
    put.residual = snap.residual;
    put.base_iteration = can_delta ? job.repl_prev_iteration : 0;
    put.frame = can_delta ? delta() : full();
    if (!peer.sent_request) {
      put.has_request = true;
      put.request = job.request;
    }

    auto reply = net::pool_round_trip(
        config_.replicas[i], static_cast<std::uint16_t>(MessageType::kCheckpointPut),
        encode_payload(put), /*timeout_s=*/2.0, /*dial_timeout_s=*/1.0);
    bool accepted = false;
    bool need_full = false;
    if (reply.ok() &&
        reply.value().type == static_cast<std::uint16_t>(MessageType::kCheckpointPutAck)) {
      serial::Decoder dec(reply.value().payload);
      auto ack = proto::CheckpointPutAck::decode(dec);
      if (ack.ok()) {
        accepted = ack.value().accepted;
        need_full = ack.value().reason == "need full";
      }
    }
    if (accepted) {
      peer.sent_request = true;
      peer.acked_iteration = snap.iteration;
      ckpt_replicated_.fetch_add(1);
      metrics_.store_ckpt_replicated.inc();
      metrics_.store_ckpt_raw_bytes.inc(snap.state.size());
      metrics_.store_ckpt_wire_bytes.inc(put.frame.size());
    } else {
      // Forget the peer's state: the next attempt sends a self-contained
      // frame (and the request again if "need full" — a restarted replica
      // lost both). Back off so a dead peer costs one dial per second, not
      // one per checkpoint.
      peer.acked_iteration = 0;
      if (need_full) peer.sent_request = false;
      peer.retry_at = now + 1.0;
    }
  }
  job.repl_prev_state = snap.state;
  job.repl_prev_iteration = snap.iteration;
}

proto::CheckpointPutAck ComputeServer::accept_checkpoint(proto::CheckpointPut put) {
  proto::CheckpointPutAck ack;
  ack.request_id = put.request_id;
  if (draining_.load() || stopping_.load()) {
    ack.reason = "server draining";
    return ack;
  }
  const auto key = std::make_pair(put.origin, put.request_id);
  std::lock_guard<std::mutex> lock(replica_mu_);
  auto it = replica_store_.find(key);

  serial::Bytes state;
  std::uint64_t args_bytes = 0;
  if (put.has_request) {
    args_bytes = dsl::args_byte_size(put.request.args);
  } else if (it != replica_store_.end() && it->second.has_request) {
    args_bytes = dsl::args_byte_size(it->second.request.args);
  }
  if (put.base_iteration > 0) {
    // Delta frame: we must hold exactly the base it was diffed against.
    if (it == replica_store_.end() ||
        it->second.snapshot.iteration != put.base_iteration) {
      ack.reason = "need full";
      return ack;
    }
    auto unpacked = bytepack::unpack(put.frame, &it->second.snapshot.state);
    if (!unpacked.ok()) {
      ack.reason = "need full";  // also covers bit-rot caught by the codec
      return ack;
    }
    state = std::move(unpacked).value();
  } else {
    auto unpacked = bytepack::unpack(put.frame);
    if (!unpacked.ok()) {
      ack.reason = "bad frame: " + unpacked.error().message;
      return ack;
    }
    state = std::move(unpacked).value();
  }

  // Byte accounting before any mutation: a refused PUT must leave the store
  // untouched. Eviction only removes *other* keys (std::map iterators to
  // surviving elements stay valid), so `it` is safe across the call.
  const std::size_t old_bytes = it != replica_store_.end() ? it->second.bytes : 0;
  const std::size_t new_bytes = state.size() + static_cast<std::size_t>(args_bytes);
  if (new_bytes > old_bytes) {
    if (!make_replica_room_locked(new_bytes - old_bytes, key)) {
      ack.reason = "replica budget";
      return ack;
    }
    replica_bytes_ += new_bytes - old_bytes;
  } else {
    const std::size_t freed = old_bytes - new_bytes;
    replica_bytes_ -= std::min(replica_bytes_, freed);
    governor_.release(freed);
  }

  if (it == replica_store_.end()) {
    // A checkpoint without its SolveRequest could never be adopted — refuse
    // so the origin resends with the request attached.
    if (!put.has_request) {
      // Roll the charge back; nothing was stored.
      replica_bytes_ -= std::min(replica_bytes_, new_bytes);
      governor_.release(new_bytes);
      ack.reason = "need full";
      return ack;
    }
    it = replica_store_.emplace(key, ReplicaEntry{}).first;
    replica_order_.push_back(key);
    while (replica_order_.size() > kMaxReplicaEntries) {
      drop_replica_entry_locked(replica_order_.front());
    }
    // The eviction above can only remove older keys: `key` was just pushed
    // to the back, so `it` stays valid past the loop.
  }
  ReplicaEntry& entry = it->second;
  entry.bytes = new_bytes;
  if (put.has_request) {
    entry.request = std::move(put.request);
    entry.has_request = true;
  }
  entry.deadline_remaining_s = put.deadline_remaining_s;
  entry.stored_wall_us = wall_micros();
  entry.snapshot.iteration = put.iteration;
  entry.snapshot.residual = put.residual;
  entry.snapshot.state = std::move(state);
  ack.accepted = true;
  return ack;
}

proto::CheckpointFetchReply ComputeServer::handle_checkpoint_fetch(
    const proto::CheckpointFetch& fetch) {
  proto::CheckpointFetchReply reply;
  reply.request_id = fetch.request_id;

  ReplicaEntry entry;
  {
    std::lock_guard<std::mutex> lock(replica_mu_);
    auto match = replica_store_.end();
    for (auto it = replica_store_.begin(); it != replica_store_.end(); ++it) {
      if (it->first.second != fetch.request_id) continue;
      if (!fetch.origin.empty() && it->first.first != fetch.origin) continue;
      match = it;
      break;
    }
    if (match == replica_store_.end()) return reply;
    reply.found = true;
    reply.iteration = match->second.snapshot.iteration;
    reply.residual = match->second.snapshot.residual;
    reply.origin = match->first.first;
    if (!fetch.adopt) return reply;
    if (draining_.load() || stopping_.load()) return reply;
    if (!match->second.has_request ||
        !registry_.spec(match->second.request.problem).has_value()) {
      return reply;
    }
    entry = std::move(match->second);
    // Adopt-once: remove before running so a racing second FETCH cannot
    // start the same job twice.
    replica_bytes_ -= std::min(replica_bytes_, entry.bytes);
    governor_.release(entry.bytes);
    replica_store_.erase(match);
    for (auto it = replica_order_.begin(); it != replica_order_.end(); ++it) {
      if (it->first == reply.origin && it->second == fetch.request_id) {
        replica_order_.erase(it);
        break;
      }
    }
  }

  // Decay the deadline by the time the checkpoint sat here: the origin
  // measured the remaining budget at PUT time, and the clock kept running
  // while it was down.
  double deadline = entry.request.deadline_s;
  if (deadline > 0.0) {
    const double held_s =
        static_cast<double>(wall_micros() - entry.stored_wall_us) / 1e6;
    deadline = entry.deadline_remaining_s - held_s;
    if (deadline <= 0.0) {
      // Budget lapsed while the origin was down; adopting would just burn a
      // slot to produce kDeadlineExceeded. Put the entry back for inspection.
      std::lock_guard<std::mutex> lock(replica_mu_);
      const auto key = std::make_pair(reply.origin, fetch.request_id);
      // Re-charge what the adopt path released moments ago; force if another
      // thread grabbed the headroom in between rather than drop the entry.
      if (!governor_.try_charge(entry.bytes)) {
        governor_.charge_forced(entry.bytes);
        metrics_.mem_forced_charge.inc();
      }
      replica_bytes_ += entry.bytes;
      replica_store_.emplace(key, std::move(entry));
      replica_order_.push_back(key);
      return reply;
    }
  }

  failover_resumes_.fetch_add(1);
  metrics_.store_failover_resume.inc();
  NS_INFO("server") << config_.name << " adopted job " << fetch.request_id
                    << " from crashed peer " << reply.origin
                    << " at replicated checkpoint iteration " << entry.snapshot.iteration;
  entry.request.deadline_s = deadline;
  readmit(std::move(entry.request), std::move(entry.snapshot));
  reply.adopted = true;
  return reply;
}

std::size_t ComputeServer::replica_holds() const {
  std::lock_guard<std::mutex> lock(replica_mu_);
  return replica_store_.size();
}

std::size_t ComputeServer::replica_bytes() const {
  std::lock_guard<std::mutex> lock(replica_mu_);
  return replica_bytes_;
}

bool ComputeServer::make_replica_room_locked(
    std::size_t incoming, const std::pair<std::string, std::uint64_t>& keep) {
  auto evict_largest = [&]() -> bool {
    auto victim = replica_store_.end();
    for (auto it = replica_store_.begin(); it != replica_store_.end(); ++it) {
      if (it->first == keep) continue;
      if (victim == replica_store_.end() || it->second.bytes > victim->second.bytes) {
        victim = it;
      }
    }
    if (victim == replica_store_.end()) return false;
    drop_replica_entry_locked(victim->first);
    metrics_.mem_replica_evicted.inc();
    return true;
  };
  // Largest-first beats FIFO here: one oversized snapshot can hold the
  // budget hostage while dozens of small, cheap-to-re-replicate entries
  // would have to be evicted to match it.
  while (replica_bytes_ + incoming > config_.mem.replica_budget_bytes) {
    if (!evict_largest()) return false;
  }
  while (!governor_.try_charge(incoming)) {
    if (!evict_largest()) return false;
  }
  return true;
}

void ComputeServer::drop_replica_entry_locked(
    const std::pair<std::string, std::uint64_t>& key_in) {
  auto it = replica_store_.find(key_in);
  if (it == replica_store_.end()) return;
  // Callers pass references into the containers erased below (map node key,
  // deque front); copy before mutating so the comparisons stay valid.
  const auto key = it->first;
  const std::size_t bytes = it->second.bytes;
  replica_bytes_ -= std::min(replica_bytes_, bytes);
  governor_.release(bytes);
  replica_store_.erase(it);
  for (auto oit = replica_order_.begin(); oit != replica_order_.end(); ++oit) {
    if (*oit == key) {
      replica_order_.erase(oit);
      break;
    }
  }
}

std::vector<proto::ServerCandidate> ComputeServer::query_candidates(
    const proto::SolveRequest& request) {
  std::vector<net::Endpoint> agents;
  {
    std::lock_guard<std::mutex> lock(links_mu_);
    for (const auto& link : agent_links_) agents.push_back(link.endpoint);
  }
  proto::Query query;
  query.problem = request.problem;
  query.max_candidates = 4;
  for (const auto& arg : request.args) {
    query.input_bytes += arg.byte_size();
    query.size_hint = std::max<std::uint64_t>(query.size_hint, arg.size_hint());
  }
  query.output_bytes = query.input_bytes;
  for (const auto& agent : agents) {
    auto reply = net::pool_round_trip(agent, static_cast<std::uint16_t>(MessageType::kQuery),
                                      encode_payload(query), /*timeout_s=*/2.0,
                                      /*dial_timeout_s=*/2.0);
    if (!reply.ok() ||
        reply.value().type != static_cast<std::uint16_t>(MessageType::kServerList)) {
      continue;
    }
    serial::Decoder dec(reply.value().payload);
    auto list = proto::ServerList::decode(dec);
    if (!list.ok()) continue;
    if (!list.value().candidates.empty()) return std::move(list.value().candidates);
  }
  return {};
}

bool ComputeServer::migrate_job(ActiveJob& job, proto::SolveResult& result) {
  const bool has_deadline = job.deadline_abs < AdmissionPolicy::kNoDeadline;
  const double remaining = has_deadline ? job.deadline_abs - now_seconds() : 0.0;
  if (has_deadline && remaining <= 0.0) return false;  // nothing left to hand over

  proto::JobTransfer transfer;
  transfer.request = job.request;
  transfer.deadline_remaining_s = std::max(remaining, 0.0);
  if (job.ckpt.has_snapshot()) {
    auto snap = job.ckpt.latest();
    transfer.checkpoint_iteration = snap.iteration;
    transfer.checkpoint_residual = snap.residual;
    transfer.checkpoint_state = std::move(snap.state);
  }
  transfer.from_server = config_.name;

  // The drain already deregistered this server, so the agents' rankings no
  // longer contain us; every candidate is a genuine peer.
  for (const auto& candidate : query_candidates(job.request)) {
    if (candidate.endpoint == endpoint_) continue;
    auto reply = net::pool_round_trip(candidate.endpoint,
                                      static_cast<std::uint16_t>(MessageType::kJobTransfer),
                                      encode_payload(transfer), /*timeout_s=*/2.0,
                                      /*dial_timeout_s=*/2.0);
    if (!reply.ok() ||
        reply.value().type != static_cast<std::uint16_t>(MessageType::kTransferAck)) {
      continue;
    }
    serial::Decoder dec(reply.value().payload);
    auto ack = proto::TransferAck::decode(dec);
    if (!ack.ok() || !ack.value().accepted) continue;
    result.error_code = static_cast<std::uint16_t>(ErrorCode::kMigrated);
    result.error_message = "migrated to " + candidate.server_name;
    result.migrated_host = candidate.endpoint.host;
    result.migrated_port = candidate.endpoint.port;
    jobs_migrated_.fetch_add(1);
    metrics_.jobs_migrated.inc();
    NS_INFO("server") << config_.name << " migrated job " << result.request_id
                      << " to " << candidate.server_name << " at checkpoint iteration "
                      << transfer.checkpoint_iteration;
    return true;
  }
  NS_WARN("server") << config_.name << " found no peer to take job "
                    << result.request_id;
  return false;
}

void ComputeServer::crash() {
  NS_WARN("server") << config_.name << " crashing (journal frozen)";
  {
    std::lock_guard<std::mutex> lock(journal_mu_);
    journal_.freeze();
  }
  crash_mode_.store(true);
  crashed_.store(true);
  // Trip every in-flight job so kernels unwind promptly; with crash_mode_
  // set their replies and terminal records are suppressed, so to clients
  // and to the journal the process simply went dark mid-write.
  {
    std::lock_guard<std::mutex> lock(active_jobs_mu_);
    for (auto& [id, job] : active_jobs_) job->token.cancel();
  }
  stop();
}

void ComputeServer::deregister_from_agents() {
  std::lock_guard<std::mutex> links_lock(links_mu_);
  for (const auto& link : agent_links_) {
    if (link.id == proto::kInvalidServerId) continue;
    proto::DeregisterServer msg;
    msg.server_id = link.id;
    // Fire-and-forget; a dead agent already thinks we are gone.
    (void)net::pool_post(link.endpoint,
                         static_cast<std::uint16_t>(MessageType::kDeregisterServer),
                         encode_payload(msg), /*dial_timeout_s=*/1.0);
  }
}

bool ComputeServer::start_drain(double deadline_s) {
  bool expected = false;
  if (!draining_.compare_exchange_strong(expected, true)) return false;
  metrics_.draining.set(1.0);
  NS_INFO("server") << config_.name << " draining (deadline "
                    << (deadline_s > 0.0 ? deadline_s : config_.io_timeout_s) << "s)";
  drain_thread_ = std::thread([this, deadline_s] { drain_work(deadline_s); });
  return true;
}

void ComputeServer::drain(double deadline_s) {
  start_drain(deadline_s);
  while (!drained_.load() && !stopping_.load()) sleep_seconds(0.005);
}

void ComputeServer::drain_work(double deadline_s) {
  // Steer traffic away first: new arrivals are already being rejected
  // (draining_ is set), and deregistering drops us from every agent's
  // ranking so clients stop being sent here at all.
  deregister_from_agents();

  const double budget = deadline_s > 0.0 ? deadline_s : config_.io_timeout_s;
  const Deadline deadline(budget);
  // Quiescence needs both views: the scheduler's counters drop as soon as a
  // kernel unwinds, but a drain-migrated job is still doing network hand-off
  // after that — it leaves active_jobs_ only once the transfer (or its
  // fallback cancel reply) has been resolved. Reporting drained before then
  // would let callers read jobs_migrated() mid-flight.
  auto quiescent = [this] {
    {
      std::lock_guard<std::mutex> lock(jobs_mu_);
      if (running_jobs_ + policy_.waiting() != 0) return false;
    }
    std::lock_guard<std::mutex> lock(active_jobs_mu_);
    return active_jobs_.empty();
  };
  while (!quiescent() && !deadline.expired() && !stopping_.load()) {
    sleep_seconds(0.02);
  }

  if (!quiescent()) {
    // Deadline lapsed: cancel everything still in flight. Running jobs
    // unwind through their checkpoints and queued ones are finished here;
    // both reply kCancelled (retryable — the work moves to another server).
    std::size_t tripped = 0;
    {
      std::lock_guard<std::mutex> lock(active_jobs_mu_);
      for (auto& [id, job] : active_jobs_) {
        // Migration marks running jobs before the token trips: the thread
        // executing the job then packages the latest checkpoint and
        // forwards it instead of replying a bare kCancelled. Queued jobs
        // stay plainly cancelled — the client's own retry moves them
        // cheaply.
        if (config_.migrate_on_drain && !job->queued.load()) {
          job->migrate.store(true);
        }
        job->token.cancel();
        ++tripped;
      }
    }
    for (auto& job : take_queued(/*cancelled_only=*/true)) {
      complete(job, cancelled_in_queue(*job));
    }
    NS_WARN("server") << config_.name << " drain deadline lapsed; cancelled " << tripped
                      << " outstanding job(s)";
    const Deadline grace(config_.io_timeout_s);
    while (!quiescent() && !grace.expired() && !stopping_.load()) {
      sleep_seconds(0.01);
    }
  }

  drained_.store(true);
  NS_INFO("server") << config_.name << " drained";
}

void ComputeServer::stop() {
  // Single flow whether the stop is local or was flagged by an injected
  // crash. Once stopping_ is visible nothing more is granted; the queue is
  // emptied without replies, and running kernels finish on the threads
  // joined below — posted jobs first, while the reactor can still carry
  // their replies.
  stopping_.store(true);
  for (auto& job : take_queued(/*cancelled_only=*/false)) abandon(job);
  job_pool_.stop();
  reactor_.stop();
  listener_.close();  // only still bound if start() failed before the reactor adopted it
  if (report_thread_.joinable()) report_thread_.join();
  if (drain_thread_.joinable()) drain_thread_.join();
  // No server thread is left. A job still registered was granted but its
  // pool task never started (the pool drops pending tasks), or was
  // recovered by a start() that then failed: it leaves like a queued one.
  std::vector<std::shared_ptr<ActiveJob>> left;
  {
    std::lock_guard<std::mutex> lock(active_jobs_mu_);
    for (const auto& [id, job] : active_jobs_) left.push_back(job);
  }
  for (const auto& job : left) abandon(job);
}

}  // namespace ns::server
