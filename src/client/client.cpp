#include "client/client.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <limits>
#include <mutex>
#include <optional>

#include "common/clock.hpp"
#include "common/log.hpp"
#include "net/pool.hpp"
#include "net/transport.hpp"

namespace ns::client {

namespace {

using proto::encode_payload;
using proto::MessageType;

Result<net::Message> round_trip(const net::Endpoint& peer, std::uint16_t type,
                                const serial::Bytes& payload, double timeout,
                                const net::LinkShape& shape = net::LinkShape::unshaped(),
                                double connect_timeout = 5.0) {
  return net::pool_round_trip(peer, type, payload, timeout,
                              std::min(timeout, connect_timeout), shape);
}

Error decode_error_reply(const net::Message& msg) {
  serial::Decoder dec(msg.payload);
  auto reply = proto::ErrorReply::decode(dec);
  if (!reply.ok()) return make_error(ErrorCode::kProtocol, "malformed error reply");
  return make_error(static_cast<ErrorCode>(reply.value().error_code), reply.value().message);
}

std::uint64_t request_size_hint(const std::vector<dsl::DataObject>& args) {
  // The client does not know which argument the problem's complexity model
  // keys on (that is agent-side metadata), so it sends the dominant size
  // across all arguments — correct for every problem in the builtin
  // catalogue whose size argument is also its largest object, and a
  // documented approximation otherwise.
  std::uint64_t hint = 1;
  for (const auto& arg : args) hint = std::max<std::uint64_t>(hint, arg.size_hint());
  return hint;
}

/// Leases are keyed by size class as well as problem: the agent grants one
/// only for latency-bound calls, and a list leased for 2 KB operands says
/// nothing about 2 MB ones. A class spans a factor of 4 in input bytes.
int size_class(std::uint64_t input_bytes) {
  return static_cast<int>(std::bit_width(input_bytes) / 2);
}

constexpr auto kSolveResultType = static_cast<std::uint16_t>(MessageType::kSolveResult);

/// The replies of one race in netsl's candidate loop, handed over by mux
/// completions: slot 0 is the attempt on the ranked candidate, slot 1 its
/// hedge. A completion captures only this, never the client or a channel, so
/// a call may return, and its client go away, while a loser's reply is due.
struct Race {
  std::mutex mu;
  std::condition_variable cv;
  std::array<std::optional<Result<net::Message>>, 2> replies;
};

/// The SolveResult in an attempt's reply, or the error that ended it. Runs
/// on the calling thread, never the channel's reader.
Result<proto::SolveResult> decode_solve_result(Result<net::Message> reply,
                                               std::uint64_t request_id) {
  if (!reply.ok()) return reply.error();
  serial::Decoder dec(reply.value().payload);
  auto result = proto::SolveResult::decode(dec);
  if (!result.ok()) return result.error();
  if (result.value().request_id != request_id) {
    return make_error(ErrorCode::kProtocol, "response id mismatch");
  }
  return result;
}

/// Stop a race's loser: a CANCEL posted on its own channel with no waiter,
/// so the winner's return never waits on it. The server's CancelAck finds no
/// waiter and is read whole and dropped.
void post_cancel(net::MuxChannel& channel, std::uint64_t request_id) {
  proto::CancelRequest cancel;
  cancel.request_id = request_id;
  channel.start(static_cast<std::uint16_t>(MessageType::kCancelRequest),
                encode_payload(cancel), static_cast<std::uint16_t>(MessageType::kCancelAck),
                request_id, net::LinkShape::unshaped(), {});
}

}  // namespace

// ---- function handles and leases ----

NetSolveClient::FunctionHandle::FunctionHandle(const std::string& problem)
    : attempt_s(metrics::histogram("client.problem." + problem + ".attempt_s")) {}

NetSolveClient::FunctionHandle& NetSolveClient::function_handle(const std::string& problem,
                                                                std::uint64_t input_bytes) {
  std::lock_guard<std::mutex> lock(cache_mu_);
  return handles_
      .try_emplace(std::pair{problem, size_class(input_bytes)}, problem)
      .first->second;
}

NetSolveClient::LeasePtr NetSolveClient::take_lease(FunctionHandle& handle) {
  std::lock_guard<std::mutex> lock(cache_mu_);
  const LeasePtr& lease = handle.lease;
  if (!lease) return nullptr;
  if (now_seconds() >= lease->expires_at || lease->calls_left == 0 ||
      lease->in_flight >= lease->slots) {
    handle.lease.reset();
    return nullptr;
  }
  --lease->calls_left;
  ++lease->in_flight;
  return lease;
}

void NetSolveClient::end_lease_call(FunctionHandle& handle, const LeasePtr& lease,
                                    bool revoke) {
  if (!lease) return;
  std::lock_guard<std::mutex> lock(cache_mu_);
  --lease->in_flight;
  if (revoke && handle.lease == lease) handle.lease.reset();
}

void NetSolveClient::revoke_all_leases() {
  std::lock_guard<std::mutex> lock(cache_mu_);
  for (auto& [key, handle] : handles_) handle.lease.reset();
}

// ---- agent failover ----

std::vector<std::size_t> NetSolveClient::agent_order() {
  std::lock_guard<std::mutex> lock(agents_mu_);
  const double now = now_seconds();
  std::vector<std::size_t> live;
  std::vector<std::size_t> cooling;
  const auto classify = [&](std::size_t i) {
    (agent_health_[i].down_until > now ? cooling : live).push_back(i);
  };
  if (active_agent_ < config_.agents.size()) classify(active_agent_);
  for (std::size_t i = 0; i < config_.agents.size(); ++i) {
    if (i != active_agent_) classify(i);
  }
  live.insert(live.end(), cooling.begin(), cooling.end());
  return live;
}

void NetSolveClient::note_agent_result(std::size_t index, bool ok) {
  std::lock_guard<std::mutex> lock(agents_mu_);
  if (index >= agent_health_.size()) return;
  if (ok) {
    agent_health_[index].down_until = 0.0;
    active_agent_ = index;  // stick with whoever answered
  } else {
    agent_health_[index].down_until = now_seconds() + config_.agent_down_cooldown_s;
  }
}

Result<net::Message> NetSolveClient::agent_round_trip(std::uint16_t type,
                                                      const serial::Bytes& payload,
                                                      double timeout) {
  if (config_.agents.empty()) {
    return make_error(ErrorCode::kAgentUnavailable, "no agents configured");
  }
  Error last_error = make_error(ErrorCode::kAgentUnavailable, "no agent reachable");
  bool failed_over = false;
  for (const std::size_t index : agent_order()) {
    auto reply = round_trip(config_.agents[index], type, payload, timeout,
                            net::LinkShape::unshaped(), config_.agent_connect_timeout_s);
    if (reply.ok()) {
      // Any reply — even an ErrorReply — means the agent is up.
      note_agent_result(index, true);
      if (failed_over) {
        // Leases were charged against the dead agent's view of the pool.
        revoke_all_leases();
        metrics::counter("client.agent_failover_total").inc();
        NS_INFO("client") << "failed over to agent "
                          << config_.agents[index].to_string();
      }
      return reply;
    }
    note_agent_result(index, false);
    last_error = reply.error();
    failed_over = true;
  }
  return last_error;
}

void NetSolveClient::post_to_agent(std::uint16_t type, const serial::Bytes& payload) {
  const auto order = agent_order();
  if (order.empty()) return;
  const std::size_t index = order.front();
  {
    std::lock_guard<std::mutex> lock(agents_mu_);
    if (agent_health_[index].down_until > now_seconds()) return;  // everyone is down
  }
  // Fire-and-forget (failure/metrics reports — the agent never replies on
  // these exchanges, so the pooled connection stays clean).
  (void)net::pool_post(config_.agents[index], type, payload, /*dial_timeout_s=*/1.0);
}

Result<NetSolveClient::ListPtr> NetSolveClient::query_metadata(
    FunctionHandle& handle, const std::string& problem, std::uint64_t input_bytes,
    std::uint64_t size_hint, double timeout_cap, trace::TraceId trace_id, bool* degraded,
    LeasePtr* ticket) {
  proto::Query query;
  query.problem = problem;
  query.input_bytes = input_bytes;
  // Reply size is unknown before execution; assume symmetry with the input
  // (exact for solve-style problems returning vectors smaller than their
  // inputs, conservative for dgemm-style ones).
  query.output_bytes = input_bytes;
  query.size_hint = size_hint;
  query.max_candidates = config_.max_candidates;
  query.trace_id = trace_id;
  query.client_id = client_id_;

  const double timeout =
      timeout_cap > 0.0 ? std::min(config_.io_timeout_s, timeout_cap) : config_.io_timeout_s;
  auto reply = agent_round_trip(static_cast<std::uint16_t>(MessageType::kQuery),
                                encode_payload(query), timeout);
  if (!reply.ok()) {
    // Every agent is unreachable. Degraded mode: serve the last good ranked
    // list for this problem from the staleness-bounded cache, so known work
    // keeps flowing direct-to-server through a full scheduler-tier outage.
    // This call's own size class is preferred, else the freshest list of
    // any size.
    if (config_.candidate_cache_ttl_s > 0.0) {
      std::lock_guard<std::mutex> lock(cache_mu_);
      const FunctionHandle* best = handle.list ? &handle : nullptr;
      for (auto it = handles_.lower_bound({problem, 0});
           best != &handle && it != handles_.end() && it->first.first == problem; ++it) {
        if (it->second.list && (best == nullptr || it->second.stored_at > best->stored_at)) {
          best = &it->second;
        }
      }
      if (best != nullptr && now_seconds() - best->stored_at <= config_.candidate_cache_ttl_s) {
        if (degraded != nullptr) *degraded = true;
        NS_WARN("client") << "all agents down; using cached candidates for " << problem;
        return best->list;
      }
    }
    return make_error(ErrorCode::kAgentUnavailable, reply.error().to_string());
  }
  if (reply.value().type == static_cast<std::uint16_t>(MessageType::kErrorReply)) {
    return decode_error_reply(reply.value());
  }
  if (reply.value().type != static_cast<std::uint16_t>(MessageType::kServerList)) {
    return make_error(ErrorCode::kProtocol, "expected ServerList from agent");
  }
  serial::Decoder dec(reply.value().payload);
  auto decoded = proto::ServerList::decode(dec);
  if (!decoded.ok()) return decoded.error();
  auto list = std::make_shared<const proto::ServerList>(std::move(decoded).value());
  if (list->candidates.empty()) return list;

  // Keep the list: it answers degraded-mode calls, and under a lease the
  // next calls too. A reply without a lease ends any lease held before.
  LeasePtr lease;
  const double now = now_seconds();
  if (list->has_lease()) {
    lease = std::make_shared<Lease>();
    lease->list = list;
    lease->expires_at = now + list->lease_seconds;
    lease->calls_left = list->lease_calls;
    lease->slots = list->lease_slots;
    if (ticket != nullptr) {
      // The querying call is the lease's first.
      --lease->calls_left;
      ++lease->in_flight;
      *ticket = lease;
    }
  }
  std::lock_guard<std::mutex> lock(cache_mu_);
  handle.list = list;
  handle.stored_at = now;
  handle.lease = std::move(lease);
  return list;
}

Result<proto::ServerList> NetSolveClient::query(const std::string& problem,
                                                const std::vector<dsl::DataObject>& args) {
  const std::uint64_t input_bytes = dsl::args_byte_size(args);
  auto list = query_metadata(function_handle(problem, input_bytes), problem, input_bytes,
                             request_size_hint(args));
  if (!list.ok()) return list.error();
  return *list.value();
}

void NetSolveClient::report_failure(proto::ServerId id, ErrorCode code) {
  if (!config_.report_failures) return;
  proto::FailureReport report;
  report.server_id = id;
  report.error_code = static_cast<std::uint16_t>(code);
  post_to_agent(static_cast<std::uint16_t>(MessageType::kFailureReport),
                encode_payload(report));
}

void NetSolveClient::report_metrics(proto::ServerId id, std::uint64_t bytes, double seconds) {
  if (!config_.report_metrics) return;
  proto::MetricsReport report;
  report.server_id = id;
  report.bytes = bytes;
  report.transfer_seconds = seconds;
  post_to_agent(static_cast<std::uint16_t>(MessageType::kMetricsReport),
                encode_payload(report));
}

double NetSolveClient::backoff_jitter(double prev_sleep) {
  std::lock_guard<std::mutex> lock(backoff_mu_);
  return std::min(config_.backoff_max_s,
                  backoff_rng_.uniform(config_.backoff_base_s, prev_sleep * 3.0));
}

double NetSolveClient::hedge_delay_for(const metrics::Histogram& attempt_s) const {
  if (config_.hedge_delay_s <= 0.0) return 0.0;
  if (attempt_s.count() < config_.hedge_min_samples) return config_.hedge_delay_s;
  const double q = attempt_s.percentile(config_.hedge_quantile);
  return q > 0.0 ? q : config_.hedge_delay_s;
}

void NetSolveClient::begin_background() {
  std::lock_guard<std::mutex> lock(bg_mu_);
  ++bg_outstanding_;
}

void NetSolveClient::end_background() {
  // Notify while holding the lock: the destructor may free the condvar the
  // instant the count reaches zero and the mutex is released.
  std::lock_guard<std::mutex> lock(bg_mu_);
  --bg_outstanding_;
  bg_cv_.notify_all();
}

Result<std::vector<dsl::DataObject>> NetSolveClient::netsl(
    const std::string& problem, const std::vector<dsl::DataObject>& args, CallStats* stats) {
  const Stopwatch total_watch;
  const bool budgeted = config_.deadline_s > 0.0;
  const Deadline deadline = budgeted ? Deadline(config_.deadline_s) : Deadline::never();

  CallStats local_stats;
  CallStats& st = stats != nullptr ? *stats : local_stats;
  st = CallStats{};
  st.trace_id = trace::new_trace_id();
  calls_total_.inc();
  // Spans the client measured land both in the stats object (for in-process
  // inspection) and in the registry's span.* histograms (for METRICS_QUERY
  // scrapes). Spans it reconstructs from the server's and agent's reported
  // timings go into the stats object only: the node that measured them
  // already recorded them, and each span is counted once.
  const auto add_derived_span = [&](const char* name, double start_s, double dur_s) {
    st.spans.push_back(trace::Span{name, start_s, dur_s});
  };
  const auto add_span = [&](const char* name, metrics::Histogram& hist, double start_s,
                            double dur_s) {
    trace::record_span(st.trace_id, name, hist, start_s, dur_s);
    add_derived_span(name, start_s, dur_s);
  };

  proto::SolveRequest request;
  request.request_id = next_request_id_.fetch_add(1);
  request.problem = problem;
  request.trace_id = st.trace_id;
  request.client_id = client_id_;
  request.require_durable = config_.require_durable;
  const std::uint64_t input_bytes = dsl::args_byte_size(args);
  const std::uint64_t size_hint = request_size_hint(args);

  FunctionHandle& handle = function_handle(problem, input_bytes);
  // A live lease on this problem and size class hands over the ranked list
  // of an earlier query: the call goes straight to the server.
  LeasePtr ticket = take_lease(handle);
  // Ends this call's hold on its lease; `revoke` also drops the lease, so
  // the next call asks the agent again.
  const auto release_lease = [&](bool revoke) {
    end_lease_call(handle, ticket, revoke);
    ticket.reset();
  };

  int attempts = 0;
  double prev_sleep = config_.backoff_base_s;
  double backoff_total = 0.0;
  // Cooperative backpressure: a retryable server rejection may carry a
  // retry_after_s hint; the next backoff honors it (sleeps at least that
  // long, still clamped into the deadline budget).
  double pending_retry_after = 0.0;
  Error last_error = make_error(ErrorCode::kRetriesExhausted, "no attempt made");

  // Hedge attempt spans land when their slot is processed, which can be out
  // of the start-time order the CallStats contract promises.
  const auto sort_spans = [&] {
    std::stable_sort(st.spans.begin(), st.spans.end(),
                     [](const trace::Span& a, const trace::Span& b) {
                       return a.start_s < b.start_s;
                     });
  };

  // Every error return funnels through here so failure counters and the
  // call-latency histogram cover unsuccessful calls, and CallStats carries
  // the attempt/backoff totals even when the call did not complete.
  const auto fail = [&](Error err) {
    st.attempts = attempts;
    st.backoff_seconds = backoff_total;
    st.total_seconds = total_watch.elapsed();
    sort_spans();
    release_lease(false);
    metrics::counter("client.failures_total").inc();
    call_s_.observe(st.total_seconds);
    return err;
  };

  // Success path of every attempt, whichever slot of its race it held.
  const auto finish_success = [&](const proto::ServerCandidate& cand,
                                  proto::SolveResult&& result, double attempt_start,
                                  double io_seconds) {
    // Reconstruct the winning attempt's hop breakdown: the server reported
    // how long the request waited in its queue and how long the compute ran;
    // whatever remains of the measured IO time is transfer. The wire carries
    // no one-way timings, so the transfer budget is split evenly around the
    // server-side spans.
    add_span("client.attempt", attempt_span_, attempt_start, io_seconds);
    const double queue = std::max(result.queue_seconds, 0.0);
    const double exec = std::max(result.exec_seconds, 0.0);
    const double half_transfer = std::max(io_seconds - queue - exec, 0.0) / 2.0;
    add_derived_span("server.queue_wait", attempt_start + half_transfer, queue);
    add_derived_span("server.compute", attempt_start + half_transfer + queue, exec);
    add_span("client.result_transfer", result_transfer_span_,
             attempt_start + half_transfer + queue + exec, half_transfer);
    // A call the server had to queue for longer than the whole predicted
    // call means the lease's premise (a latency-bound call on a server with
    // a free slot) no longer holds.
    release_lease(queue > cand.predicted_seconds);

    const std::uint64_t output_bytes = dsl::args_byte_size(result.outputs);
    const double transfer = std::max(io_seconds - result.exec_seconds, 0.0);
    report_metrics(cand.server_id, input_bytes + output_bytes, transfer);
    // Successful attempts only: a straggler's latency says where the timeout
    // landed, not where the service time lives, and would poison the
    // quantile the hedge delay is derived from.
    handle.attempt_s.observe(io_seconds);
    st.server_id = cand.server_id;
    st.server_name = cand.server_name;
    st.predicted_seconds = cand.predicted_seconds;
    st.total_seconds = total_watch.elapsed();
    st.exec_seconds = result.exec_seconds;
    st.transfer_seconds = transfer;
    st.input_bytes = input_bytes;
    st.output_bytes = output_bytes;
    st.attempts = attempts;
    st.backoff_seconds = backoff_total;
    sort_spans();
    call_s_.observe(st.total_seconds);
    return std::move(result.outputs);
  };

  // Hedge delay for this call (0 = hedging off): the observed per-problem
  // latency quantile once warmed up, else the configured static delay.
  const double hedge_delay = hedge_delay_for(handle.attempt_s);

  // Budgeted calls retry until the deadline, not a fixed attempt count; a
  // budget of time is what the caller actually has to spend.
  const auto out_of_budget = [&] {
    return budgeted ? deadline.expired() : attempts >= config_.max_retries;
  };

  // Within a deadline budget, a transiently empty pool or unreachable agent
  // is worth waiting out: quarantined servers get re-admitted and partitions
  // heal. Backoff, then re-query.
  const auto retry_within_budget = [&](Error err) {
    last_error = std::move(err);
    prev_sleep = backoff_jitter(prev_sleep);
    const double sleep_s = std::min(prev_sleep, deadline.remaining());
    if (sleep_s > 0.0) {
      sleep_seconds(sleep_s);
      backoff_total += sleep_s;
      metrics::histogram("client.backoff_s").observe(sleep_s);
    }
  };

  while (!out_of_budget()) {
    ListPtr list;
    if (ticket != nullptr && attempts == 0) {
      list = ticket->list;
      st.leased = true;
      leased_calls_total_.inc();
    } else {
      // Every leased candidate failed (which revoked the lease) or there
      // never was a lease: ask the agent.
      release_lease(ticket != nullptr);
      const double query_start = total_watch.elapsed();
      bool degraded = false;
      auto queried =
          query_metadata(handle, problem, input_bytes, size_hint,
                         budgeted ? deadline.remaining() : 0.0, st.trace_id, &degraded, &ticket);
      const double query_dur = total_watch.elapsed() - query_start;
      if (degraded && !st.degraded) {
        st.degraded = true;
        metrics::counter("client.degraded_calls_total").inc();
      }
      if (!queried.ok()) {
        const auto code = queried.error().code;
        if (budgeted && (code == ErrorCode::kNoServer ||
                         code == ErrorCode::kAgentUnavailable || is_retryable(code))) {
          retry_within_budget(queried.error());
          continue;
        }
        // If servers existed but all failed under us (we reported them and
        // the agent blacklisted them), surface that as exhausted retries
        // rather than a bare "no server" — the request did reach servers.
        if (code == ErrorCode::kNoServer && attempts > 0) {
          return fail(make_error(ErrorCode::kRetriesExhausted,
                                 "all servers failed; last: " + last_error.to_string()));
        }
        return fail(queried.error());
      }
      list = std::move(queried).value();
      add_span("client.query", query_span_, query_start, query_dur);
      // The scheduling decision happened inside the query round trip, right
      // before the reply was sent; anchor it at the tail of the query span so
      // span starts stay non-decreasing.
      const double sched = std::clamp(list->schedule_seconds, 0.0, query_dur);
      add_derived_span("agent.schedule", query_start + (query_dur - sched), sched);
    }
    if (list->candidates.empty()) {
      if (budgeted) {
        retry_within_budget(
            make_error(ErrorCode::kNoServer, "agent returned no candidates for " + problem));
        continue;
      }
      return fail(
          make_error(ErrorCode::kNoServer, "agent returned no candidates for " + problem));
    }

    const auto& candidates = list->candidates;
    std::size_t ci = 0;
    while (ci < candidates.size()) {
      if (out_of_budget()) break;
      ++attempts;
      attempts_total_.inc();
      if (attempts > 1) metrics::counter("client.retries_total").inc();

      // Decorrelated-jitter backoff before every retry (never the first
      // attempt), clamped to whatever budget remains. A server-issued
      // retry_after hint raises the floor: the server told us when capacity
      // is expected, and retrying sooner would just be shed again.
      if (attempts > 1 && (config_.backoff_base_s > 0.0 || pending_retry_after > 0.0)) {
        double sleep_s = 0.0;
        if (config_.backoff_base_s > 0.0) {
          prev_sleep = backoff_jitter(prev_sleep);
          sleep_s = prev_sleep;
        }
        if (pending_retry_after > sleep_s) {
          sleep_s = pending_retry_after;
          metrics::counter("client.retry_after_honored_total").inc();
        }
        pending_retry_after = 0.0;
        sleep_s = std::min(sleep_s, deadline.remaining());
        if (sleep_s > 0.0) {
          sleep_seconds(sleep_s);
          backoff_total += sleep_s;
          metrics::histogram("client.backoff_s").observe(sleep_s);
        }
        if (budgeted && deadline.expired()) break;
      }

      // ---- one race: the ranked candidate, and a hedge on the next one ----
      //
      // When the first attempt is still outstanding after the hedge delay, a
      // backup races it on the next-ranked candidate; with hedging off or no
      // backup candidate the race has one attempt. The first success wins
      // and the loser is cancelled. Every finished attempt goes through the
      // one outcome handler below; a failed one is a retry, never a race.
      struct Attempt {
        const proto::ServerCandidate* candidate = nullptr;
        double start = 0.0;          // since call entry
        double due = 0.0;            // now_seconds() at which it times out
        net::MuxChannelPtr channel;  // null when the dial failed
        bool open = false;           // launched, outcome not yet handled
      };
      std::array<Attempt, 2> tries;
      const auto race = std::make_shared<Race>();
      const std::size_t width = hedge_delay > 0.0 && ci + 1 < candidates.size() ? 2 : 1;
      std::size_t launched = 0;
      double hedge_at = 0.0;
      const auto racing = [&] { return tries[0].open || tries[1].open; };

      const auto launch = [&] {
        const std::size_t slot = launched++;
        Attempt& a = tries[slot];
        a.candidate = &candidates[ci + slot];
        a.start = total_watch.elapsed();
        a.open = true;
        request.deadline_s = budgeted ? deadline.remaining() : 0.0;
        // A live deadline budget caps every wait: there is no point blocking
        // past the moment the caller stops caring about the answer.
        const double timeout = request.deadline_s > 0.0
                                   ? std::min(config_.io_timeout_s, request.deadline_s)
                                   : config_.io_timeout_s;
        net::MuxChannel::Completion done = [race, slot](Result<net::Message> reply) {
          std::lock_guard<std::mutex> lock(race->mu);
          race->replies[slot].emplace(std::move(reply));
          race->cv.notify_all();
        };
        // Every attempt against this server shares one socket; the reply is
        // demultiplexed by request id, so concurrent calls and hedges
        // interleave instead of dialing a connection each.
        auto channel = net::ConnectionPool::instance().channel(a.candidate->endpoint,
                                                               std::min(2.0, timeout));
        if (!channel.ok()) return done(channel.error());
        a.channel = std::move(channel).value();
        a.due = now_seconds() + timeout;
        serial::Encoder enc;
        request.encode(enc, args);
        a.channel->start(static_cast<std::uint16_t>(MessageType::kSolveRequest), enc.take(),
                         kSolveResultType, request.request_id, config_.link, std::move(done));
      };

      // The race is decided: cancel every attempt still in flight. A loser
      // whose reply already landed needs no cancel.
      const auto cancel_losers = [&] {
        for (Attempt& a : tries) {
          if (!a.open) continue;
          a.open = false;
          if (a.channel && a.channel->abandon(request.request_id, kSolveResultType)) {
            metrics::counter("client.cancel_sent_total").inc();
            post_cancel(*a.channel, request.request_id);
          }
        }
      };

      // The next finished attempt of the race. The hedge fires from this
      // wait when its delay runs out first, and an attempt past its IO
      // timeout is abandoned and finishes as kTimeout.
      const auto next_outcome = [&]() -> std::pair<std::size_t, Result<net::Message>> {
        constexpr double kNever = std::numeric_limits<double>::infinity();
        const auto landed = [&] {
          for (std::size_t i = 0; i < launched; ++i) {
            if (tries[i].open && race->replies[i].has_value()) return true;
          }
          return false;
        };
        std::unique_lock<std::mutex> lock(race->mu);
        for (;;) {
          double wake = launched < width ? hedge_at : kNever;
          for (std::size_t i = 0; i < launched; ++i) {
            if (tries[i].open) wake = std::min(wake, tries[i].due);
          }
          if (wake == kNever) {
            race->cv.wait(lock, landed);
          } else {
            race->cv.wait_for(lock, std::chrono::duration<double>(wake - now_seconds()), landed);
          }
          for (std::size_t i = 0; i < launched; ++i) {
            if (tries[i].open && race->replies[i].has_value()) {
              tries[i].open = false;
              return {i, std::move(*race->replies[i])};
            }
          }
          // Unlocked: launch() completes inline on a failed dial or send.
          lock.unlock();
          const double now = now_seconds();
          if (launched < width && now >= hedge_at) {
            st.hedged = true;
            metrics::counter("client.hedge_total").inc();
            ++attempts;
            attempts_total_.inc();
            NS_DEBUG("client") << "hedging " << problem << " on "
                               << candidates[ci + 1].server_name << " after " << hedge_delay
                               << "s";
            launch();
          }
          for (std::size_t i = 0; i < launched; ++i) {
            Attempt& a = tries[i];
            if (!a.open || a.channel == nullptr || now < a.due) continue;
            if (a.channel->abandon(request.request_id, kSolveResultType)) {
              // The reply may still arrive; the reader drops it whole, so the
              // stream stays framed and the channel stays usable.
              a.open = false;
              return {i, make_error(ErrorCode::kTimeout, "mux call timed out")};
            }
            a.due = kNever;  // the reply is being handed over
          }
          lock.lock();
        }
      };

      launch();
      hedge_at = now_seconds() + hedge_delay;
      while (racing()) {
        auto [slot, reply] = next_outcome();
        const Attempt& done = tries[slot];
        const proto::ServerCandidate& cand = *done.candidate;
        double io_seconds = total_watch.elapsed() - done.start;
        auto result = decode_solve_result(std::move(reply), request.request_id);

        if (!result.ok() && !racing() && config_.reattach_s > 0.0 &&
            result.error().code != ErrorCode::kConnectFailed) {
          // The transport died after the request went out, so the server may
          // have admitted (and journaled) the job before crashing. Poll its
          // durable state instead of resubmitting: a restarted server
          // recovers the job from its write-ahead log and finishes the
          // original submission, sparing a duplicate solve. Skipped while a
          // sibling still races: it may win yet.
          metrics::counter("client.reattach_total").inc();
          const double reattach_budget =
              budgeted ? std::min(config_.reattach_s, deadline.remaining())
                       : config_.reattach_s;
          NS_DEBUG("client") << "transport lost mid-call; reattaching to "
                             << cand.server_name << " for request " << request.request_id;
          auto recovered = wait_for_job(cand.endpoint, request.request_id, reattach_budget);
          if (recovered.ok()) {
            metrics::counter("client.reattach_success_total").inc();
            io_seconds = total_watch.elapsed() - done.start;
            result = std::move(recovered);
          }
        }

        if (!result.ok() && !racing() && config_.checkpoint_failover) {
          // The server is gone for good (reattach exhausted, or the dial
          // itself was refused). If it was replicating checkpoints, one of
          // the other ranked candidates may hold the job's latest snapshot:
          // ask each to adopt it. The adopter resumes mid-iteration, so the
          // work done before the crash is not recomputed from zero.
          for (const auto& peer : candidates) {
            if (peer.server_id == cand.server_id) continue;
            proto::CheckpointFetch fetch;
            fetch.request_id = request.request_id;
            fetch.adopt = true;
            auto reply = round_trip(
                peer.endpoint, static_cast<std::uint16_t>(MessageType::kCheckpointFetch),
                encode_payload(fetch), /*timeout=*/2.0, net::LinkShape::unshaped(),
                /*connect_timeout=*/2.0);
            if (!reply.ok() ||
                reply.value().type !=
                    static_cast<std::uint16_t>(MessageType::kCheckpointFetchReply)) {
              continue;
            }
            serial::Decoder dec(reply.value().payload);
            auto fr = proto::CheckpointFetchReply::decode(dec);
            if (!fr.ok() || !fr.value().adopted) continue;
            metrics::counter("client.failover_adopt_total").inc();
            NS_DEBUG("client") << "request " << request.request_id << " adopted by "
                               << peer.server_name << " at checkpoint iteration "
                               << fr.value().iteration << "; waiting there";
            const double follow_budget =
                budgeted ? deadline.remaining() : config_.io_timeout_s;
            auto followed = wait_for_job(peer.endpoint, request.request_id, follow_budget);
            if (followed.ok()) {
              io_seconds = total_watch.elapsed() - done.start;
              result = std::move(followed);
            }
            break;  // adopt-once: no other peer still holds the entry
          }
        }

        if (!result.ok()) {
          // Transport-level failure: blacklist and move on.
          release_lease(true);
          add_span("client.attempt", attempt_span_, done.start,
                   total_watch.elapsed() - done.start);
          NS_DEBUG("client") << "attempt on " << cand.server_name
                             << " failed: " << result.error().to_string();
          last_error = result.error();
          report_failure(cand.server_id, result.error().code);
          if (!is_retryable(result.error().code)) {
            cancel_losers();
            return fail(result.error());
          }
          continue;
        }

        const auto code = static_cast<ErrorCode>(result.value().error_code);
        if (code == ErrorCode::kOk) {
          cancel_losers();
          if (slot == 1) metrics::counter("client.hedge_wins_total").inc();
          return finish_success(cand, std::move(result.value()), done.start, io_seconds);
        }
        release_lease(true);
        add_span("client.attempt", attempt_span_, done.start, io_seconds);
        if (code == ErrorCode::kMigrated && result.value().migrated_port != 0) {
          // The job is still running on the destination server (drain moved
          // it with its checkpoint): follow the forwarding address and wait
          // there rather than starting a duplicate solve elsewhere. A racing
          // sibling is cancelled first: the migrated job owns the answer.
          cancel_losers();
          const net::Endpoint dest{result.value().migrated_host,
                                   result.value().migrated_port};
          metrics::counter("client.migrations_followed_total").inc();
          NS_DEBUG("client") << "request " << request.request_id << " migrated to "
                             << dest.host << ":" << dest.port << "; following";
          const double follow_budget = budgeted ? deadline.remaining() : config_.io_timeout_s;
          auto followed = wait_for_job(dest, request.request_id, follow_budget);
          if (followed.ok() &&
              static_cast<ErrorCode>(followed.value().error_code) == ErrorCode::kOk) {
            return finish_success(cand, std::move(followed.value()), done.start,
                                  total_watch.elapsed() - done.start);
          }
          // Dead end (destination unreachable or the job failed there too).
          // The solve is idempotent, so falling back to a fresh attempt on
          // the next candidate is safe.
          last_error = make_error(ErrorCode::kMigrated, "migration follow failed for request " +
                                                            std::to_string(request.request_id));
          continue;
        }
        Error err = make_error(code, result.value().error_message);
        if (!is_retryable(code)) {
          cancel_losers();
          return fail(std::move(err));  // the request itself is bad; retrying cannot help
        }
        NS_DEBUG("client") << "server " << cand.server_name
                           << " replied failure: " << err.to_string();
        pending_retry_after = std::max(pending_retry_after, result.value().retry_after_s);
        last_error = std::move(err);
        // An overload rejection is an admission decision by a healthy
        // server, not a fault: reporting it would quarantine the very pool
        // that is asking us to back off. The agent learns about the pressure
        // from the server's own workload reports instead.
        if (code != ErrorCode::kServerOverloaded) report_failure(cand.server_id, code);
      }
      ci += launched;
    }
    // Ranked list exhausted; re-query (the agent has fresher liveness data
    // after our failure reports).
  }
  if (budgeted) {
    metrics::counter("client.deadline_exceeded_total").inc();
    return fail(make_error(ErrorCode::kDeadlineExceeded,
                           "deadline budget of " + std::to_string(config_.deadline_s) +
                               "s exhausted after " + std::to_string(attempts) +
                               " attempts; last: " + last_error.to_string()));
  }
  return fail(make_error(ErrorCode::kRetriesExhausted,
                         "all " + std::to_string(attempts) +
                             " attempts failed; last: " + last_error.to_string()));
}

Result<std::vector<dsl::ProblemSpec>> NetSolveClient::list_problems() {
  auto reply = agent_round_trip(static_cast<std::uint16_t>(MessageType::kListProblems), {},
                                config_.io_timeout_s);
  if (!reply.ok()) return make_error(ErrorCode::kAgentUnavailable, reply.error().to_string());
  if (reply.value().type == static_cast<std::uint16_t>(MessageType::kErrorReply)) {
    return decode_error_reply(reply.value());
  }
  if (reply.value().type != static_cast<std::uint16_t>(MessageType::kProblemCatalog)) {
    return make_error(ErrorCode::kProtocol, "expected ProblemCatalog");
  }
  serial::Decoder dec(reply.value().payload);
  auto catalog = proto::ProblemCatalog::decode(dec);
  if (!catalog.ok()) return catalog.error();
  return std::move(catalog.value().problems);
}

Result<proto::AgentStats> NetSolveClient::agent_stats() {
  auto reply = agent_round_trip(static_cast<std::uint16_t>(MessageType::kAgentStatsRequest),
                                {}, config_.io_timeout_s);
  if (!reply.ok()) return make_error(ErrorCode::kAgentUnavailable, reply.error().to_string());
  if (reply.value().type != static_cast<std::uint16_t>(MessageType::kAgentStatsReply)) {
    return make_error(ErrorCode::kProtocol, "expected AgentStatsReply");
  }
  serial::Decoder dec(reply.value().payload);
  return proto::AgentStats::decode(dec);
}

Status NetSolveClient::ping_agent() {
  auto reply = agent_round_trip(static_cast<std::uint16_t>(MessageType::kPing), {},
                                config_.io_timeout_s);
  if (!reply.ok()) return reply.error();
  if (reply.value().type != static_cast<std::uint16_t>(MessageType::kPong)) {
    return make_error(ErrorCode::kProtocol, "expected Pong");
  }
  return ok_status();
}

Result<metrics::Snapshot> scrape_metrics(const net::Endpoint& peer, double timeout_s,
                                         const std::string& prefix) {
  proto::MetricsQuery query;
  query.prefix = prefix;
  auto reply = round_trip(peer, static_cast<std::uint16_t>(MessageType::kMetricsQuery),
                          encode_payload(query), timeout_s);
  if (!reply.ok()) return reply.error();
  if (reply.value().type == static_cast<std::uint16_t>(MessageType::kErrorReply)) {
    return decode_error_reply(reply.value());
  }
  if (reply.value().type != static_cast<std::uint16_t>(MessageType::kMetricsDump)) {
    return make_error(ErrorCode::kProtocol, "expected MetricsDump");
  }
  serial::Decoder dec(reply.value().payload);
  auto dump = proto::MetricsDump::decode(dec);
  if (!dump.ok()) return dump.error();
  return std::move(dump.value().snapshot);
}

Result<proto::CancelAck> cancel_request(const net::Endpoint& peer, std::uint64_t request_id,
                                        double timeout_s) {
  proto::CancelRequest cancel;
  cancel.request_id = request_id;
  auto reply = round_trip(peer, static_cast<std::uint16_t>(MessageType::kCancelRequest),
                          encode_payload(cancel), timeout_s);
  if (!reply.ok()) return reply.error();
  if (reply.value().type != static_cast<std::uint16_t>(MessageType::kCancelAck)) {
    return make_error(ErrorCode::kProtocol, "expected CancelAck");
  }
  serial::Decoder dec(reply.value().payload);
  return proto::CancelAck::decode(dec);
}

Result<proto::DrainAck> drain_server(const net::Endpoint& peer, double deadline_s,
                                     double timeout_s) {
  proto::DrainRequest drain;
  drain.deadline_s = deadline_s;
  auto reply = round_trip(peer, static_cast<std::uint16_t>(MessageType::kDrainRequest),
                          encode_payload(drain), timeout_s);
  if (!reply.ok()) return reply.error();
  if (reply.value().type != static_cast<std::uint16_t>(MessageType::kDrainAck)) {
    return make_error(ErrorCode::kProtocol, "expected DrainAck");
  }
  serial::Decoder dec(reply.value().payload);
  return proto::DrainAck::decode(dec);
}

Result<proto::ProbeReply> probe_request(const net::Endpoint& peer, std::uint64_t request_id,
                                        bool fetch_result, double timeout_s) {
  proto::ProbeRequest probe;
  probe.request_id = request_id;
  probe.fetch_result = fetch_result;
  auto reply = round_trip(peer, static_cast<std::uint16_t>(MessageType::kProbeRequest),
                          encode_payload(probe), timeout_s);
  if (!reply.ok()) return reply.error();
  if (reply.value().type != static_cast<std::uint16_t>(MessageType::kProbeReply)) {
    return make_error(ErrorCode::kProtocol, "expected ProbeReply");
  }
  serial::Decoder dec(reply.value().payload);
  return proto::ProbeReply::decode(dec);
}

Result<proto::SolveResult> wait_for_job(const net::Endpoint& peer, std::uint64_t request_id,
                                        double budget_s, double poll_interval_s) {
  net::Endpoint target = peer;
  const Deadline budget(budget_s);
  const double interval = poll_interval_s > 0.0 ? poll_interval_s : 0.05;
  while (true) {
    const double remaining = budget.remaining();
    if (remaining <= 0.0) break;
    auto reply = probe_request(target, request_id, /*fetch_result=*/true,
                               std::min(remaining, 2.0));
    if (reply.ok()) {
      const auto& probe = reply.value();
      if ((probe.state == proto::JobState::kCompleted ||
           probe.state == proto::JobState::kFailed) &&
          probe.has_result) {
        // A MIGRATED terminal record is a forwarding address, not an answer:
        // chase it (possibly through several hops of rolling drains).
        if (static_cast<ErrorCode>(probe.result.error_code) == ErrorCode::kMigrated &&
            probe.result.migrated_port != 0) {
          target = net::Endpoint{probe.result.migrated_host, probe.result.migrated_port};
          metrics::counter("client.migrations_followed_total").inc();
          continue;
        }
        return probe.result;
      }
      // Queued, running, or unknown (a restarting server replays its journal
      // before it starts answering probes, so unknown here usually means the
      // id truly never reached this server — but the budget, not one poll,
      // decides when to give up).
    }
    sleep_seconds(std::min(interval, budget.remaining()));
  }
  return make_error(ErrorCode::kTimeout,
                    "job " + std::to_string(request_id) + " did not reach a terminal state in " +
                        std::to_string(budget_s) + "s");
}

// ---- Non-blocking calls ----

struct RequestHandle::State {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  std::optional<Result<std::vector<dsl::DataObject>>> result;
  CallStats stats;
  std::thread worker;

  ~State() {
    if (!worker.joinable()) return;
    // If the handle was dropped before completion, the worker lambda holds
    // the last reference and this destructor runs on the worker thread
    // itself — joining would deadlock, so detach (the thread is already at
    // its final statement).
    if (worker.get_id() == std::this_thread::get_id()) {
      worker.detach();
    } else {
      worker.join();
    }
  }
};

NetSolveClient::~NetSolveClient() {
  // A dropped RequestHandle detaches its worker thread, which still runs
  // netsl against this client, so block (condvar, not a spin) until the last
  // one checks out. Hedge losers and cancels hold nothing of the client.
  std::unique_lock<std::mutex> lock(bg_mu_);
  bg_cv_.wait(lock, [this] { return bg_outstanding_ == 0; });
}

RequestHandle NetSolveClient::netsl_nb(const std::string& problem,
                                       std::vector<dsl::DataObject> args) {
  auto state = std::make_shared<RequestHandle::State>();
  begin_background();
  // The worker keeps the state alive; the handle may be destroyed first.
  state->worker = std::thread(
      [this, state, problem, args = std::move(args)]() {
        CallStats stats;
        auto result = netsl(problem, args, &stats);
        {
          std::lock_guard<std::mutex> lock(state->mu);
          state->result.emplace(std::move(result));
          state->stats = stats;
          state->done = true;
          state->cv.notify_all();
        }
        // Last touch of the client: after this the destructor may proceed
        // and `this` may be gone.
        end_background();
      });
  return RequestHandle(std::move(state));
}

bool RequestHandle::ready() const {
  if (!state_) return false;
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->done;
}

Result<std::vector<dsl::DataObject>> RequestHandle::wait() {
  if (!state_) {
    return make_error(ErrorCode::kInternal, "empty request handle");
  }
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->cv.wait(lock, [this] { return state_->done; });
  if (!state_->result.has_value()) {
    return make_error(ErrorCode::kInternal, "result already consumed");
  }
  auto out = std::move(*state_->result);
  state_->result.reset();
  return out;
}

const CallStats& RequestHandle::stats() const {
  static const CallStats kEmpty{};
  if (!state_) return kEmpty;
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->stats;
}

}  // namespace ns::client
