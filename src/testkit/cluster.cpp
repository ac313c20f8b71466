#include "testkit/cluster.hpp"

#include <cmath>

#include "common/clock.hpp"
#include "common/log.hpp"
#include "linalg/rating.hpp"
#include "net/pool.hpp"

namespace ns::testkit {

agent::AgentConfig TestCluster::agent_config_for(std::size_t i) const {
  agent::AgentConfig ac;
  ac.policy = config_.policy;
  ac.registry = config_.registry;
  ac.ping_period_s = config_.ping_period_s;
  ac.count_pending = config_.count_pending;
  ac.lease_s = config_.lease_s;
  ac.guard = config_.agent_guard;
  if (config_.agent_count > 1) {
    ac.sync_period_s = config_.agent_sync_period_s;
    // Peers = every *other* agent already bound. At initial startup later
    // agents are not bound yet; add_peer() completes the mesh afterwards.
    for (std::size_t j = 0; j < agent_endpoints_.size(); ++j) {
      if (j != i) ac.peers.push_back(agent_endpoints_[j]);
    }
  }
  return ac;
}

server::ServerConfig TestCluster::server_config_for(std::size_t i) const {
  const auto& spec = config_.servers.at(i);
  server::ServerConfig sc;
  sc.name = spec.name;
  sc.agents = agent_endpoints_;
  sc.reregister_period_s = spec.reregister_period_s;
  sc.workers = spec.workers;
  sc.max_queue = spec.max_queue;
  sc.admission = spec.admission;
  sc.speed_factor = spec.speed;
  sc.slowdown_mode = spec.slowdown_mode;
  sc.rating_override = rating_base_;
  sc.report_period_s = spec.report_period_s;
  sc.report_threshold = spec.report_threshold;
  sc.background_load = spec.background_load;
  sc.link = spec.link;
  sc.io_timeout_s = config_.io_timeout_s;
  sc.failure = spec.failure;
  sc.problem_filter = spec.problems;
  sc.data_dir = spec.data_dir;
  sc.checkpoint_interval = spec.checkpoint_interval;
  sc.journal_fsync = spec.journal_fsync;
  sc.migrate_on_drain = spec.migrate_on_drain;
  sc.guard = spec.guard;
  sc.checkpoint_compress = spec.checkpoint_compress;
  sc.mem = spec.mem;
  return sc;
}

Result<std::unique_ptr<TestCluster>> TestCluster::start(ClusterConfig config) {
  if (config.servers.empty()) {
    return make_error(ErrorCode::kBadArguments, "cluster needs at least one server");
  }
  if (config.agent_count < 1) {
    return make_error(ErrorCode::kBadArguments, "cluster needs at least one agent");
  }

  std::unique_ptr<TestCluster> cluster(new TestCluster());
  cluster->config_ = config;

  cluster->rating_base_ = config.rating_base > 0
                              ? config.rating_base
                              : linalg::linpack_rating(/*n=*/160, /*repeats=*/2).mflops;

  for (std::size_t i = 0; i < config.agent_count; ++i) {
    auto agent = agent::Agent::start(cluster->agent_config_for(i));
    if (!agent.ok()) {
      cluster->stop();
      return agent.error();
    }
    cluster->agent_endpoints_.push_back(agent.value()->endpoint());
    cluster->agents_.push_back(std::move(agent).value());
  }
  // Complete the full mesh: earlier agents learn the later agents' ports.
  for (std::size_t i = 0; i < cluster->agents_.size(); ++i) {
    for (std::size_t j = i + 1; j < cluster->agents_.size(); ++j) {
      cluster->agents_[i]->add_peer(cluster->agent_endpoints_[j]);
    }
  }

  std::uint64_t seed = 0xbada55;
  for (std::size_t i = 0; i < config.servers.size(); ++i) {
    const auto& spec = config.servers[i];
    server::ServerConfig sc = cluster->server_config_for(i);
    for (std::size_t j : spec.replicas) {
      if (j < cluster->servers_.size() && cluster->servers_[j]) {
        sc.replicas.push_back(cluster->servers_[j]->endpoint());
      } else {
        NS_WARN("testkit") << spec.name << " replica index " << j
                           << " not started yet; skipped (order replica "
                              "targets before the replicating server)";
      }
    }
    sc.seed = seed++;
    auto server = server::ComputeServer::start(std::move(sc));
    if (!server.ok()) {
      cluster->stop();
      return server.error();
    }
    cluster->servers_.push_back(std::move(server).value());
  }

  // Wait for every server's first workload report at every agent so each
  // agent's view is complete before the first query (registration already
  // happened synchronously in ComputeServer::start).
  const Deadline deadline(5.0);
  while (!deadline.expired()) {
    bool all_ready = true;
    for (auto& agent : cluster->agents_) {
      if (agent->stats().workload_reports < cluster->servers_.size()) {
        all_ready = false;
        break;
      }
    }
    if (all_ready) break;
    sleep_seconds(0.002);
  }
  return cluster;
}

TestCluster::~TestCluster() { stop(); }

void TestCluster::stop() {
  // Never leave fault plans behind: the injectors are process-global and a
  // later test would inherit this cluster's chaos schedule.
  net::FaultInjector::instance().disarm_all();
  vfs::StorageFaultInjector::instance().disarm_all();
  mem::AllocFaultInjector::instance().disarm_all();
  for (auto& server : servers_) {
    if (server) server->stop();
  }
  for (auto& agent : agents_) {
    if (agent) agent->stop();
  }
  // The connection pool is process-global too, and the next cluster may bind
  // the very ports this one just released — drop every cached connection so
  // a later test cannot reuse a socket into a dead (or worse, reincarnated)
  // endpoint.
  net::ConnectionPool::instance().clear();
}

void TestCluster::arm_fault(std::size_t i, net::FaultPlan plan) {
  net::FaultInjector::instance().arm(servers_.at(i)->endpoint(), std::move(plan));
}

void TestCluster::arm_agent_fault(net::FaultPlan plan) {
  net::FaultInjector::instance().arm(agent_endpoints_.front(), std::move(plan));
}

void TestCluster::disarm_faults() { net::FaultInjector::instance().disarm_all(); }

void TestCluster::arm_storage_fault(std::size_t i, vfs::StorageFaultPlan plan) {
  const auto& data_dir = config_.servers.at(i).data_dir;
  if (data_dir.empty()) {
    NS_WARN("testkit") << config_.servers.at(i).name
                       << " has no data_dir; storage fault plan ignored";
    return;
  }
  vfs::StorageFaultInjector::instance().arm(data_dir, std::move(plan));
}

void TestCluster::disarm_storage_faults() {
  vfs::StorageFaultInjector::instance().disarm_all();
}

void TestCluster::arm_alloc_fault(mem::AllocFaultPlan plan) {
  mem::AllocFaultInjector::instance().arm(std::move(plan));
}

void TestCluster::disarm_alloc_faults() {
  mem::AllocFaultInjector::instance().disarm_all();
}

Result<proto::DrainAck> TestCluster::drain_server(std::size_t i, double deadline_s) {
  return client::drain_server(servers_.at(i)->endpoint(), deadline_s);
}

void TestCluster::kill_server(std::size_t i) {
  servers_.at(i)->stop();
  // Pooled connections into the dead incarnation would be reused (and fail)
  // before the MSG_PEEK staleness check notices the FIN on a racing close.
  net::ConnectionPool::instance().evict(servers_.at(i)->endpoint());
}

void TestCluster::crash_server(std::size_t i) {
  servers_.at(i)->crash();
  net::ConnectionPool::instance().evict(servers_.at(i)->endpoint());
}

void TestCluster::kill_agent(std::size_t i) {
  auto& slot = agents_.at(i);
  if (!slot) return;  // already dead
  slot->stop();
  slot.reset();  // release the port so restart_agent can rebind
  net::ConnectionPool::instance().evict(agent_endpoints_.at(i));
}

Status TestCluster::restart_agent(std::size_t i) {
  if (agents_.at(i)) return make_error(ErrorCode::kBadArguments, "agent still running");
  agent::AgentConfig ac = agent_config_for(i);
  ac.listen = agent_endpoints_.at(i);
  // The port was just released; give the kernel a beat if the first rebind
  // races the old listener's teardown.
  const Deadline deadline(2.0);
  for (;;) {
    auto agent = agent::Agent::start(ac);
    if (agent.ok()) {
      agents_.at(i) = std::move(agent).value();
      return ok_status();
    }
    if (deadline.expired()) return agent.error();
    sleep_seconds(0.02);
  }
}

Status TestCluster::restart_server(std::size_t i) {
  auto& slot = servers_.at(i);
  if (!slot) return make_error(ErrorCode::kBadArguments, "no server in slot");
  const net::Endpoint listen = slot->endpoint();
  slot->stop();
  slot.reset();  // release the port before rebinding
  net::ConnectionPool::instance().evict(listen);

  const auto& spec = config_.servers.at(i);
  server::ServerConfig sc = server_config_for(i);
  sc.listen = listen;
  for (std::size_t j : spec.replicas) {
    if (j != i && j < servers_.size() && servers_[j]) {
      sc.replicas.push_back(servers_[j]->endpoint());
    }
  }
  // A distinct seed stream: the restarted incarnation is a new process.
  sc.seed = 0xbada55 + 0x1000 + static_cast<std::uint64_t>(i);
  auto server = server::ComputeServer::start(std::move(sc));
  if (!server.ok()) return server.error();
  slot = std::move(server).value();
  return ok_status();
}

Result<metrics::Snapshot> TestCluster::scrape_agent_metrics(const std::string& prefix) const {
  // Scrape the first live agent (the registry is process-wide anyway; what
  // matters is that some agent refreshes the directory gauges and answers).
  for (std::size_t i = 0; i < agents_.size(); ++i) {
    if (agents_[i]) return client::scrape_metrics(agent_endpoints_[i], /*timeout_s=*/5.0, prefix);
  }
  return make_error(ErrorCode::kAgentUnavailable, "all agents killed");
}

Result<metrics::Snapshot> TestCluster::scrape_server_metrics(std::size_t i,
                                                             const std::string& prefix) const {
  return client::scrape_metrics(servers_.at(i)->endpoint(), /*timeout_s=*/5.0, prefix);
}

client::NetSolveClient TestCluster::make_client() const {
  return make_client(config_.client_link);
}

client::NetSolveClient TestCluster::make_client(const net::LinkShape& link) const {
  client::ClientConfig cc;
  cc.agents = agent_endpoints_;
  cc.link = link;
  cc.io_timeout_s = config_.io_timeout_s;
  cc.deadline_s = config_.client_deadline_s;
  cc.hedge_delay_s = config_.client_hedge_delay_s;
  cc.hedge_quantile = config_.client_hedge_quantile;
  cc.hedge_min_samples = config_.client_hedge_min_samples;
  cc.reattach_s = config_.client_reattach_s;
  cc.require_durable = config_.client_require_durable;
  cc.checkpoint_failover = config_.client_checkpoint_failover;
  return client::NetSolveClient(cc);
}

std::vector<ClusterServerSpec> uniform_pool(std::size_t count, int workers) {
  std::vector<ClusterServerSpec> specs;
  for (std::size_t i = 0; i < count; ++i) {
    ClusterServerSpec spec;
    spec.name = "server" + std::to_string(i);
    spec.workers = workers;
    specs.push_back(std::move(spec));
  }
  return specs;
}

std::vector<ClusterServerSpec> power_of_two_pool(std::size_t count, int workers) {
  std::vector<ClusterServerSpec> specs;
  double speed = 1.0;
  for (std::size_t i = 0; i < count; ++i) {
    ClusterServerSpec spec;
    spec.name = "server" + std::to_string(i) + "_s" + std::to_string(i);
    spec.speed = speed;
    spec.workers = workers;
    specs.push_back(std::move(spec));
    speed /= 2.0;
  }
  return specs;
}

}  // namespace ns::testkit
