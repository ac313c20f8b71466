#include "agent/registry.hpp"

#include <algorithm>
#include <cmath>

#include "common/log.hpp"

namespace ns::agent {

std::string_view breaker_state_name(BreakerState state) noexcept {
  switch (state) {
    case BreakerState::kClosed: return "closed";
    case BreakerState::kOpen: return "open";
    case BreakerState::kHalfOpen: return "half_open";
  }
  return "unknown";
}

void ServerRegistry::open_breaker_locked(ServerRecord& record, bool escalate) {
  if (escalate || record.breaker == BreakerState::kClosed) record.open_count += 1;
  const double cooldown =
      std::min(config_.quarantine_s *
                   std::pow(config_.quarantine_backoff,
                            static_cast<double>(std::max(record.open_count - 1, 0))),
               config_.quarantine_max_s);
  record.breaker = BreakerState::kOpen;
  record.open_until = now_seconds() + cooldown;
  record.probe_successes = 0;
  record.alive = false;
  NS_WARN("agent") << "server " << record.name << " quarantined for " << cooldown
                   << "s (open #" << record.open_count << ")";
}

void ServerRegistry::probe_success_locked(ServerRecord& record) {
  if (record.breaker == BreakerState::kOpen && now_seconds() >= record.open_until) {
    record.breaker = BreakerState::kHalfOpen;
    record.rating_factor = config_.readmit_rating_factor;
  }
  if (record.breaker != BreakerState::kHalfOpen) return;
  record.probe_successes += 1;
  if (record.probe_successes < config_.probes_to_close) return;
  record.breaker = BreakerState::kClosed;
  record.alive = true;
  record.consecutive_failures = 0;
  record.rating_factor = config_.readmit_rating_factor;
  record.last_report_time = now_seconds();
  NS_INFO("agent") << "server " << record.name << " re-admitted at "
                   << record.rating_factor << "x rating after "
                   << record.probe_successes << " successful probes";
}

void ServerRegistry::tick_breakers_locked() {
  if (!breaker_enabled()) return;
  const double now = now_seconds();
  for (auto& [id, record] : servers_) {
    if (record.breaker == BreakerState::kOpen && now >= record.open_until) {
      record.breaker = BreakerState::kHalfOpen;
      record.rating_factor = config_.readmit_rating_factor;
      NS_INFO("agent") << "server " << record.name << " half-open (probing)";
    }
  }
}

proto::ServerId ServerRegistry::add(const proto::RegisterServer& reg) {
  std::lock_guard<std::mutex> lock(mu_);

  // A returning server (same name + endpoint) keeps its record and id.
  for (auto& [id, record] : servers_) {
    if (record.name == reg.server_name && record.endpoint == reg.endpoint) {
      record.mflops = reg.mflops;
      record.last_report_time = now_seconds();
      record.problems.clear();
      for (const auto& spec : reg.problems) {
        record.problems.insert(spec.name);
        specs_.try_emplace(spec.name, spec);
      }
      // A registration from a NEW process lifetime is a restart: the old
      // quarantine history no longer describes this incarnation, so revive
      // fully. The SAME incarnation is a periodic keep-alive refresh; with
      // the breaker active it proves liveness but must not bust an open
      // quarantine — the failures were observed on the client path, which a
      // self-refresh says nothing about. Without the breaker (legacy mode)
      // an explicit re-registration always revives.
      const bool restart = reg.incarnation != record.incarnation;
      record.incarnation = reg.incarnation;
      if (restart || !breaker_enabled()) {
        record.alive = true;
        record.consecutive_failures = 0;
        record.breaker = BreakerState::kClosed;
        record.open_count = 0;
        record.probe_successes = 0;
        record.rating_factor = 1.0;
        NS_INFO("agent") << "revived server " << record.name << " id=" << id;
      } else if (record.breaker == BreakerState::kClosed) {
        record.alive = true;
      }
      return id;
    }
  }

  ServerRecord record;
  record.id = next_id_++;
  record.name = reg.server_name;
  record.endpoint = reg.endpoint;
  record.mflops = reg.mflops;
  record.incarnation = reg.incarnation;
  record.latency_s = config_.default_latency_s;
  record.bandwidth_Bps = config_.default_bandwidth_Bps;
  record.last_report_time = now_seconds();
  for (const auto& spec : reg.problems) {
    record.problems.insert(spec.name);
    specs_.try_emplace(spec.name, spec);
  }
  const auto id = record.id;
  NS_INFO("agent") << "registered server " << record.name << " id=" << id
                   << " mflops=" << record.mflops << " problems=" << record.problems.size();
  servers_.emplace(id, std::move(record));
  return id;
}

void ServerRegistry::update_workload(const proto::WorkloadReport& report) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = servers_.find(report.server_id);
  if (it == servers_.end()) return;
  it->second.workload = report.workload;
  it->second.completed = report.completed;
  it->second.sojourn_p95_s = report.sojourn_p95_s;
  it->second.free_slots = report.free_slots;
  it->second.durable = report.durable;
  it->second.mem_free_bytes = report.mem_free_bytes;
  it->second.spill_active = report.spill_active;
  it->second.last_report_time = now_seconds();
  // A workload report proves the process is up, but a quarantined server
  // stays quarantined: its failures were observed on the client path, which
  // a self-report says nothing about. Probes decide re-admission.
  if (it->second.breaker == BreakerState::kClosed) it->second.alive = true;
  // A fresh report supersedes the assignment-based estimate.
  it->second.pending = 0.0;
}

bool ServerRegistry::deregister(proto::ServerId id) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = servers_.find(id);
  if (it == servers_.end()) return false;
  auto& record = it->second;
  record.alive = false;
  // Fresh timestamp: sync entries carry age = now - last contact, so peers
  // prefer this deliberate deadness over their own stale "alive" view.
  record.last_report_time = now_seconds();
  record.pending = 0.0;
  NS_INFO("agent") << "server " << record.name << " id=" << id
                   << " deregistered (draining)";
  return true;
}

void ServerRegistry::record_failure(proto::ServerId id) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = servers_.find(id);
  if (it == servers_.end()) return;
  auto& record = it->second;
  record.consecutive_failures += 1;

  if (breaker_enabled()) {
    if (record.breaker == BreakerState::kHalfOpen) {
      // The probe traffic failed: back to quarantine, longer cooldown.
      open_breaker_locked(record, /*escalate=*/true);
      return;
    }
    if (record.breaker == BreakerState::kOpen) {
      // Still failing while quarantined (e.g. straggling client reports):
      // push the probe window out without escalating the cooldown tier.
      open_breaker_locked(record, /*escalate=*/false);
      return;
    }
    if (record.consecutive_failures >= config_.max_failures) {
      open_breaker_locked(record, /*escalate=*/true);
    }
    return;
  }

  if (record.consecutive_failures >= config_.max_failures) {
    record.alive = false;
    NS_WARN("agent") << "server " << record.name << " marked dead after "
                     << record.consecutive_failures << " failures";
  }
}

void ServerRegistry::record_metrics(proto::ServerId id, std::uint64_t bytes, double seconds) {
  if (seconds <= 0 || bytes == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = servers_.find(id);
  if (it == servers_.end()) return;
  auto& record = it->second;
  record.consecutive_failures = 0;
  if (breaker_enabled()) {
    if (record.breaker != BreakerState::kClosed) {
      // A client completed real work against this server — the strongest
      // probe there is.
      probe_success_locked(record);
    } else if (record.rating_factor < 1.0) {
      // Earn the rating back success by success.
      record.rating_factor = std::min(
          1.0, record.rating_factor +
                   config_.rating_recovery * (1.0 - record.rating_factor));
    }
  }
  // Interpret the sample as latency + bytes/bandwidth with the current
  // latency estimate; fold the implied bandwidth into the EWMA. Tiny
  // transfers update latency instead.
  const double alpha = config_.ewma_alpha;
  if (bytes < 4096) {
    record.latency_s = (1 - alpha) * record.latency_s + alpha * seconds;
  } else {
    // Subtract the latency estimate, but never attribute less than half the
    // sample to transfer: a sample faster than the current latency estimate
    // would otherwise imply near-infinite bandwidth and poison the EWMA.
    const double transfer = std::max(seconds - record.latency_s, 0.5 * seconds);
    const double implied_bw = static_cast<double>(bytes) / transfer;
    record.bandwidth_Bps = (1 - alpha) * record.bandwidth_Bps + alpha * implied_bw;
    // Fast samples also mean the latency estimate was too high.
    if (seconds < record.latency_s) {
      record.latency_s = (1 - alpha) * record.latency_s + alpha * seconds;
    }
  }
}

std::vector<ServerRecord> ServerRegistry::probe_candidates() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!breaker_enabled()) return {};
  tick_breakers_locked();
  std::vector<ServerRecord> out;
  for (const auto& [id, record] : servers_) {
    if (record.breaker == BreakerState::kHalfOpen) out.push_back(record);
  }
  return out;
}

void ServerRegistry::record_probe(proto::ServerId id, bool success) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!breaker_enabled()) return;
  const auto it = servers_.find(id);
  if (it == servers_.end()) return;
  if (success) {
    probe_success_locked(it->second);
  } else if (it->second.breaker != BreakerState::kClosed) {
    open_breaker_locked(it->second, /*escalate=*/true);
  }
}

bool ServerRegistry::record_assignment(proto::ServerId id, const LeaseRequest* lease) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = servers_.find(id);
  if (it == servers_.end()) return false;
  auto& record = it->second;
  record.assigned += 1;
  bool granted = false;
  if (lease != nullptr) {
    auto& holders = lessees_[id];
    const double now = now_seconds();
    std::erase_if(holders, [now](const auto& holder) { return holder.second <= now; });
    const bool holds = lease->client_id != 0 && holders.count(lease->client_id) > 0;
    // free_slots < 0 (never reported) covers no new lease.
    granted = holds || record.free_slots - record.pending >= lease->slots;
    if (granted && lease->client_id != 0) {
      auto& expiry = holders[lease->client_id];
      expiry = std::max(expiry, lease->expires_at);
    }
  }
  record.pending += granted ? static_cast<double>(lease->slots) : 1.0;
  return granted;
}

void ServerRegistry::expire_stale_locked() {
  if (config_.report_timeout_s <= 0) return;
  const double now = now_seconds();
  for (auto& [id, record] : servers_) {
    if (record.alive && now - record.last_report_time > config_.report_timeout_s) {
      record.alive = false;
      NS_WARN("agent") << "server " << record.name << " expired (no report for "
                       << now - record.last_report_time << "s)";
    }
  }
}

std::vector<proto::SyncEntry> ServerRegistry::snapshot_for_sync() {
  std::lock_guard<std::mutex> lock(mu_);
  const double now = now_seconds();
  std::vector<proto::SyncEntry> out;
  out.reserve(servers_.size());
  for (const auto& [id, record] : servers_) {
    proto::SyncEntry entry;
    entry.server_name = record.name;
    entry.endpoint = record.endpoint;
    entry.mflops = record.mflops;
    entry.workload = record.workload;
    entry.completed = record.completed;
    entry.alive = record.alive;
    entry.age_seconds = std::max(now - record.last_report_time, 0.0);
    for (const auto& problem : record.problems) {
      const auto it = specs_.find(problem);
      if (it != specs_.end()) entry.problems.push_back(it->second);
    }
    out.push_back(std::move(entry));
  }
  return out;
}

bool ServerRegistry::apply_sync(const proto::SyncEntry& entry) {
  std::lock_guard<std::mutex> lock(mu_);
  const double entry_time = now_seconds() - std::max(entry.age_seconds, 0.0);

  for (auto& [id, record] : servers_) {
    if (record.name != entry.server_name || !(record.endpoint == entry.endpoint)) continue;
    // Known server: apply only if the peer's information is fresher.
    if (entry_time <= record.last_report_time) return false;
    record.mflops = entry.mflops;
    record.workload = entry.workload;
    record.completed = entry.completed;
    record.alive = entry.alive;
    record.last_report_time = entry_time;
    for (const auto& spec : entry.problems) {
      record.problems.insert(spec.name);
      specs_.try_emplace(spec.name, spec);
    }
    return true;
  }

  // Foreign server: adopt it with a local id.
  ServerRecord record;
  record.id = next_id_++;
  record.name = entry.server_name;
  record.endpoint = entry.endpoint;
  record.mflops = entry.mflops;
  record.workload = entry.workload;
  record.completed = entry.completed;
  record.alive = entry.alive;
  record.latency_s = config_.default_latency_s;
  record.bandwidth_Bps = config_.default_bandwidth_Bps;
  record.last_report_time = entry_time;
  for (const auto& spec : entry.problems) {
    record.problems.insert(spec.name);
    specs_.try_emplace(spec.name, spec);
  }
  NS_INFO("agent") << "adopted server " << record.name << " from peer sync, id=" << record.id;
  servers_.emplace(record.id, std::move(record));
  return true;
}

std::vector<ServerRecord> ServerRegistry::candidates_for(const std::string& problem) {
  std::lock_guard<std::mutex> lock(mu_);
  expire_stale_locked();
  tick_breakers_locked();
  std::vector<ServerRecord> out;
  for (const auto& [id, record] : servers_) {
    // Half-open servers are rankable too: a slice of real traffic is what
    // proves (or disproves) recovery. Their reduced rating keeps them at the
    // back of the list while healthy servers are available.
    const bool rankable = record.alive || record.breaker == BreakerState::kHalfOpen;
    if (!rankable || record.problems.count(problem) == 0) continue;
    out.push_back(record);
    if (record.rating_factor < 1.0) out.back().mflops *= record.rating_factor;
  }
  return out;
}

std::vector<ServerRecord> ServerRegistry::all() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ServerRecord> out;
  out.reserve(servers_.size());
  for (const auto& [id, record] : servers_) out.push_back(record);
  return out;
}

std::optional<ServerRecord> ServerRegistry::find(proto::ServerId id) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = servers_.find(id);
  if (it == servers_.end()) return std::nullopt;
  return it->second;
}

std::vector<dsl::ProblemSpec> ServerRegistry::catalog() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<dsl::ProblemSpec> out;
  out.reserve(specs_.size());
  for (const auto& [name, spec] : specs_) out.push_back(spec);
  return out;
}

std::optional<dsl::ProblemSpec> ServerRegistry::problem_spec(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = specs_.find(name);
  if (it == specs_.end()) return std::nullopt;
  return it->second;
}

std::size_t ServerRegistry::alive_count() {
  std::lock_guard<std::mutex> lock(mu_);
  expire_stale_locked();
  return static_cast<std::size_t>(
      std::count_if(servers_.begin(), servers_.end(),
                    [](const auto& kv) { return kv.second.alive; }));
}

}  // namespace ns::agent
