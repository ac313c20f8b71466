#include "agent/agent.hpp"

#include <algorithm>
#include <cmath>

#include "common/clock.hpp"
#include "common/log.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "net/pool.hpp"

namespace ns::agent {

namespace {

using proto::encode_payload;
using proto::MessageType;

/// A leased ranking is reused without a query only while the query is
/// most of what a call costs: the top prediction is latency-bound, i.e.
/// within this factor of the server's measured latency (the paper's model
/// T = latency + bytes/bandwidth + flops/rate, with the last two terms
/// small). Kernel-bound and bandwidth-bound calls keep per-call queries, so
/// every such call is placed against fresh load data.
constexpr double kLeaseLatencyFactor = 2.0;
/// In-flight calls a lease admits. One per lease: a blocking caller never
/// has more, and each grant claims a whole free worker slot.
constexpr std::uint32_t kLeaseSlots = 1;
/// Cap on a lease's call budget, whatever the prediction.
constexpr std::uint32_t kMaxLeaseCalls = 1u << 16;

bool latency_bound(const ServerRecord& server, double predicted_seconds) {
  return server.latency_s > 0.0 && predicted_seconds <= kLeaseLatencyFactor * server.latency_s;
}

/// Calls the slots can complete within the lease at the predicted rate.
std::uint32_t lease_budget(double lease_s, double predicted_seconds) {
  const double calls = std::ceil(kLeaseSlots * lease_s / std::max(predicted_seconds, 1e-9));
  return static_cast<std::uint32_t>(std::clamp(calls, 1.0, double{kMaxLeaseCalls}));
}

Status send_error(const net::ReactorConnPtr& conn, ErrorCode code,
                  const std::string& message) {
  proto::ErrorReply reply;
  reply.error_code = static_cast<std::uint16_t>(code);
  reply.message = message;
  return conn->send(static_cast<std::uint16_t>(MessageType::kErrorReply),
                    encode_payload(reply));
}

}  // namespace

Result<std::unique_ptr<Agent>> Agent::start(AgentConfig config) {
  auto policy = make_policy(config.policy, config.policy_seed);
  if (!policy.ok()) return policy.error();
  auto listener = net::TcpListener::bind(config.listen);
  if (!listener.ok()) return listener.error();
  std::unique_ptr<Agent> agent(
      new Agent(std::move(config), std::move(listener).value(), std::move(policy).value()));
  for (const auto& peer : agent->config_.peers) {
    agent->peers_.push_back(PeerState{peer});
  }
  // Warm the registry from peers before serving: a restarted agent then
  // answers queries from the mesh's directory instead of an empty one.
  if (agent->config_.sync_period_s > 0 && agent->config_.bootstrap_from_peers) {
    agent->bootstrap_from_peers();
  }
  net::ReactorConfig reactor_config;
  reactor_config.idle_timeout_s = std::max(agent->config_.io_timeout_s, 5.0);
  // Every agent handler is a short metadata lookup (registry read/write,
  // policy ranking) — run them on the loop thread and skip the two context
  // switches per request that pool dispatch costs.
  reactor_config.inline_handlers = true;
  reactor_config.guard = agent->config_.guard;
  NS_RETURN_IF_ERROR(agent->reactor_.start(
      std::move(agent->listener_),
      [raw = agent.get()](const net::ReactorConnPtr& conn, net::Message&& msg) {
        return raw->handle_message(conn, std::move(msg));
      },
      reactor_config));
  if (agent->config_.ping_period_s > 0) {
    agent->ping_thread_ = std::thread([raw = agent.get()] { raw->ping_loop(); });
  }
  // Started even with no initial peers: add_peer() may grow the mesh later.
  if (agent->config_.sync_period_s > 0) {
    agent->sync_thread_ = std::thread([raw = agent.get()] { raw->sync_loop(); });
  }
  return agent;
}

void Agent::add_peer(const net::Endpoint& peer) {
  std::lock_guard<std::mutex> lock(peers_mu_);
  for (const auto& p : peers_) {
    if (p.endpoint == peer) return;
  }
  peers_.push_back(PeerState{peer});
}

std::vector<net::Endpoint> Agent::peer_endpoints() {
  std::lock_guard<std::mutex> lock(peers_mu_);
  std::vector<net::Endpoint> out;
  out.reserve(peers_.size());
  for (const auto& p : peers_) out.push_back(p.endpoint);
  return out;
}

void Agent::note_peer_result(const net::Endpoint& peer, bool ok) {
  std::lock_guard<std::mutex> lock(peers_mu_);
  for (auto& p : peers_) {
    if (!(p.endpoint == peer)) continue;
    p.alive = ok;
    if (ok) p.last_ok_time = now_seconds();
    return;
  }
}

void Agent::bootstrap_from_peers() {
  for (const auto& peer : peer_endpoints()) {
    auto reply = net::pool_round_trip(peer, static_cast<std::uint16_t>(MessageType::kSyncPull),
                                      {}, /*timeout_s=*/2.0, /*dial_timeout_s=*/0.5);
    if (!reply.ok() ||
        reply.value().type != static_cast<std::uint16_t>(MessageType::kSyncState)) {
      note_peer_result(peer, false);
      continue;
    }
    serial::Decoder dec(reply.value().payload);
    auto state = proto::SyncState::decode(dec);
    if (!state.ok()) {
      note_peer_result(peer, false);
      continue;
    }
    std::size_t applied = 0;
    for (const auto& entry : state.value().entries) {
      if (registry_.apply_sync(entry)) ++applied;
    }
    metrics::counter("agent.bootstrap_entries_total").inc(applied);
    note_peer_result(peer, true);
    NS_INFO("agent") << "bootstrapped " << applied << "/" << state.value().entries.size()
                     << " registry entries from peer " << peer.to_string();
  }
}

Agent::Agent(AgentConfig config, net::TcpListener listener,
             std::unique_ptr<SelectionPolicy> policy)
    : config_(std::move(config)),
      listener_(std::move(listener)),
      endpoint_(listener_.endpoint()),
      registry_(config_.registry),
      policy_(std::move(policy)),
      queries_total_(metrics::counter("agent.queries_total")),
      leases_total_(metrics::counter("agent.leases_total")),
      schedule_span_(trace::span_histogram("agent.schedule")) {}

Agent::~Agent() { stop(); }

void Agent::stop() {
  // Single flow whether the stop is local or was flagged remotely via
  // kShutdown: flag, stop the reactor (closes the listener and every
  // connection, joins the loop and all handler threads — agent handlers
  // never block, so no pre-join wakeups are needed), then join the
  // periodic threads.
  stopping_.store(true);
  reactor_.stop();
  listener_.close();  // only still bound if start() failed before the reactor adopted it
  if (ping_thread_.joinable()) ping_thread_.join();
  if (sync_thread_.joinable()) sync_thread_.join();
}

void Agent::ping_loop() {
  while (!stopping_.load()) {
    // Sleep in small increments so stop() stays prompt.
    const Deadline next(config_.ping_period_s);
    while (!next.expired() && !stopping_.load()) {
      sleep_seconds(std::min(0.02, next.remaining()));
    }
    if (stopping_.load()) return;

    const auto ping_ok = [](const net::Endpoint& endpoint) {
      auto conn = net::TcpConnection::connect(endpoint, 0.5);
      if (!conn.ok() ||
          !net::send_message(conn.value(), static_cast<std::uint16_t>(MessageType::kPing), {})
               .ok()) {
        return false;
      }
      auto reply = net::recv_message(conn.value(), 1.0);
      return reply.ok() &&
             reply.value().type == static_cast<std::uint16_t>(MessageType::kPong);
    };

    for (const auto& record : registry_.all()) {
      if (!record.alive || stopping_.load()) continue;
      if (!ping_ok(record.endpoint)) {
        NS_WARN("agent") << "ping to " << record.name << " failed";
        registry_.record_failure(record.id);
      }
    }

    // Half-open probing: quarantined servers whose cooldown elapsed get an
    // active ping so recovery is detected even when healthy peers absorb all
    // client traffic. Pongs accumulate toward re-admission; silence re-arms
    // the quarantine.
    for (const auto& record : registry_.probe_candidates()) {
      if (stopping_.load()) break;
      registry_.record_probe(record.id, ping_ok(record.endpoint));
    }
  }
}

void Agent::sync_loop() {
  while (!stopping_.load()) {
    const Deadline next(config_.sync_period_s);
    while (!next.expired() && !stopping_.load()) {
      sleep_seconds(std::min(0.02, next.remaining()));
    }
    if (stopping_.load()) return;

    proto::SyncState state;
    state.entries = registry_.snapshot_for_sync();
    if (state.entries.empty()) continue;
    const serial::Bytes payload = encode_payload(state);
    for (const auto& peer : peer_endpoints()) {
      // Snapshots ride the keep-alive pool: one warm connection per peer
      // instead of a dial per period. A down peer fails the dial and is
      // retried next period.
      const bool sent =
          net::pool_post(peer, static_cast<std::uint16_t>(MessageType::kSyncState), payload,
                         /*dial_timeout_s=*/0.5)
              .ok();
      note_peer_result(peer, sent);
    }
  }
}

bool Agent::handle_message(const net::ReactorConnPtr& conn, net::Message&& msg) {
  if (stopping_.load()) return false;
  serial::Decoder dec(msg.payload);
  switch (static_cast<MessageType>(msg.type)) {
    case MessageType::kRegisterServer: {
      auto reg = proto::RegisterServer::decode(dec);
      if (!reg.ok()) {
        (void)send_error(conn, reg.error().code, reg.error().message);
        return false;
      }
      stat_registrations_.fetch_add(1);
      metrics::counter("agent.registrations_total").inc();
      proto::RegisterAck ack;
      ack.server_id = registry_.add(reg.value());
      // Hand the server our peer list so it can register with the whole
      // mesh even when configured with a single agent endpoint.
      ack.peer_agents = peer_endpoints();
      return conn->send(static_cast<std::uint16_t>(MessageType::kRegisterAck),
                               encode_payload(ack))
          .ok();
    }

    case MessageType::kWorkloadReport: {
      auto report = proto::WorkloadReport::decode(dec);
      if (report.ok()) {
        stat_workload_reports_.fetch_add(1);
        metrics::counter("agent.workload_reports_total").inc();
        registry_.update_workload(report.value());
      }
      return true;  // fire-and-forget
    }

    case MessageType::kDeregisterServer: {
      auto dereg = proto::DeregisterServer::decode(dec);
      if (dereg.ok() && registry_.deregister(dereg.value().server_id)) {
        metrics::counter("agent.deregistrations_total").inc();
        refresh_server_gauges();
      }
      return true;  // fire-and-forget, like workload reports
    }

    case MessageType::kQuery: {
      auto query = proto::Query::decode(dec);
      if (!query.ok()) {
        (void)send_error(conn, query.error().code, query.error().message);
        return false;
      }
      stat_queries_.fetch_add(1);
      queries_total_.inc();
      const auto spec = registry_.problem_spec(query.value().problem);
      if (!spec) {
        metrics::counter("agent.unknown_problem_total").inc();
        return send_error(conn, ErrorCode::kUnknownProblem, query.value().problem).ok();
      }
      auto records = registry_.candidates_for(query.value().problem);
      if (records.empty()) {
        metrics::counter("agent.no_server_total").inc();
        return send_error(conn, ErrorCode::kNoServer,
                          "no alive server offers " + query.value().problem)
            .ok();
      }
      const RequestProfile profile = profile_request(
          *spec, query.value().size_hint, query.value().input_bytes, query.value().output_bytes);
      if (!config_.count_pending) {
        for (auto& r : records) r.pending = 0.0;  // ablation: report-only load view
      }
      // The scheduling decision is a traced hop: its duration travels back
      // to the client in the ServerList and lands in this process's
      // span.agent.schedule_s histogram.
      const Stopwatch schedule_watch;
      proto::ServerList list;
      {
        std::lock_guard<std::mutex> lock(policy_mu_);
        list.candidates = policy_->rank(records, profile);
      }
      list.schedule_seconds = schedule_watch.elapsed();
      trace::record_span(query.value().trace_id, "agent.schedule", schedule_span_, 0.0,
                         list.schedule_seconds);
      if (list.candidates.size() > query.value().max_candidates) {
        list.candidates.resize(query.value().max_candidates);
      }
      if (!list.candidates.empty()) {
        const auto& top = list.candidates.front();
        const auto record = std::find_if(records.begin(), records.end(),
                                         [&](const ServerRecord& r) { return r.id == top.server_id; });
        const bool leasable = config_.lease_s > 0.0 && policy_->grants_leases() &&
                              record != records.end() &&
                              latency_bound(*record, top.predicted_seconds);
        const LeaseRequest lease{query.value().client_id, kLeaseSlots,
                                 now_seconds() + config_.lease_s};
        if (registry_.record_assignment(top.server_id, leasable ? &lease : nullptr)) {
          leases_total_.inc();
          list.lease_seconds = config_.lease_s;
          list.lease_slots = kLeaseSlots;
          list.lease_calls = lease_budget(config_.lease_s, top.predicted_seconds);
        }
      }
      return conn->send(static_cast<std::uint16_t>(MessageType::kServerList),
                               encode_payload(list))
          .ok();
    }

    case MessageType::kFailureReport: {
      auto report = proto::FailureReport::decode(dec);
      if (report.ok()) {
        stat_failure_reports_.fetch_add(1);
        metrics::counter("agent.failure_reports_total").inc();
        registry_.record_failure(report.value().server_id);
      }
      return true;
    }

    case MessageType::kMetricsReport: {
      auto report = proto::MetricsReport::decode(dec);
      if (report.ok()) {
        registry_.record_metrics(report.value().server_id, report.value().bytes,
                                 report.value().transfer_seconds);
      }
      return true;
    }

    case MessageType::kListProblems: {
      proto::ProblemCatalog catalog;
      catalog.problems = registry_.catalog();
      return conn->send(static_cast<std::uint16_t>(MessageType::kProblemCatalog),
                               encode_payload(catalog))
          .ok();
    }

    case MessageType::kPing: {
      return conn->send(static_cast<std::uint16_t>(MessageType::kPong), {}).ok();
    }

    case MessageType::kAgentStatsRequest: {
      return conn->send(static_cast<std::uint16_t>(MessageType::kAgentStatsReply),
                        encode_payload(stats()))
          .ok();
    }

    case MessageType::kMetricsQuery: {
      auto query = proto::MetricsQuery::decode(dec);
      refresh_server_gauges();
      proto::MetricsDump dump;
      dump.snapshot = metrics::Registry::instance().snapshot(
          query.ok() ? query.value().prefix : std::string{});
      return conn->send(static_cast<std::uint16_t>(MessageType::kMetricsDump),
                               encode_payload(dump))
          .ok();
    }

    case MessageType::kSyncState: {
      auto state = proto::SyncState::decode(dec);
      if (state.ok()) {
        for (const auto& entry : state.value().entries) {
          (void)registry_.apply_sync(entry);
        }
      }
      return true;  // fire-and-forget
    }

    case MessageType::kSyncPull: {
      // Anti-entropy: a (re)starting peer asks for our full directory.
      proto::SyncState state;
      state.entries = registry_.snapshot_for_sync();
      return conn->send(static_cast<std::uint16_t>(MessageType::kSyncState),
                               encode_payload(state))
          .ok();
    }

    case MessageType::kShutdown: {
      // Flag the stop and release the port asynchronously: this handler runs
      // on a reactor pool thread and cannot join the reactor from here; the
      // owner's stop() does the full teardown.
      stopping_.store(true);
      reactor_.stop_accepting();
      return false;
    }

    default:
      (void)send_error(conn, ErrorCode::kProtocol,
                       "unexpected message type " + std::to_string(msg.type));
      return false;
  }
}

void Agent::refresh_server_gauges() {
  // Gauges are last-write-wins snapshots of directory state, refreshed at
  // scrape time: breaker state (0 closed / 1 open / 2 half-open), the
  // recovering rating factor, reported workload and liveness per server.
  for (const auto& record : registry_.all()) {
    const std::string base = "agent.server." + record.name + ".";
    metrics::gauge(base + "breaker").set(static_cast<double>(record.breaker));
    metrics::gauge(base + "rating_factor").set(record.rating_factor);
    metrics::gauge(base + "workload").set(record.workload);
    metrics::gauge(base + "alive").set(record.alive ? 1.0 : 0.0);
    metrics::gauge(base + "sojourn_p95_s").set(record.sojourn_p95_s);
    metrics::gauge(base + "free_slots").set(record.free_slots);
    metrics::gauge(base + "mem_free_bytes").set(record.mem_free_bytes);
    metrics::gauge(base + "spill_active").set(static_cast<double>(record.spill_active));
  }
  metrics::gauge("agent.alive_servers").set(static_cast<double>(registry_.alive_count()));
  {
    std::lock_guard<std::mutex> lock(peers_mu_);
    std::size_t alive_peers = 0;
    for (const auto& p : peers_) {
      if (p.alive) ++alive_peers;
      metrics::gauge("agent.peer." + p.endpoint.to_string() + ".alive")
          .set(p.alive ? 1.0 : 0.0);
    }
    metrics::gauge("agent.alive_peers").set(static_cast<double>(alive_peers));
  }
}

proto::AgentStats Agent::stats() {
  proto::AgentStats s;
  s.queries = stat_queries_.load();
  s.registrations = stat_registrations_.load();
  s.workload_reports = stat_workload_reports_.load();
  s.failure_reports = stat_failure_reports_.load();
  s.alive_servers = static_cast<std::uint32_t>(registry_.alive_count());
  {
    std::lock_guard<std::mutex> lock(peers_mu_);
    const double now = now_seconds();
    s.peers.reserve(peers_.size());
    for (const auto& p : peers_) {
      proto::PeerStatus status;
      status.endpoint = p.endpoint;
      status.alive = p.alive;
      status.age_seconds = p.last_ok_time < 0 ? -1.0 : now - p.last_ok_time;
      s.peers.push_back(std::move(status));
    }
  }
  return s;
}

}  // namespace ns::agent
