// Server-selection policies.
//
// MinCompletionTime is NetSolve's policy (rank by the predictor); the other
// three are the baselines the load-balancing experiments compare against.
// Every policy returns a full ranked list, not a single winner — the
// client's fault-tolerance loop walks the list on failure.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "agent/predictor.hpp"
#include "agent/registry.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"

namespace ns::agent {

class SelectionPolicy {
 public:
  virtual ~SelectionPolicy() = default;

  /// Rank `candidates` best-first for the given request. Implementations
  /// must fill ServerCandidate::predicted_seconds (the client reports it in
  /// the prediction-accuracy experiment) regardless of their ranking key.
  virtual std::vector<proto::ServerCandidate> rank(
      const std::vector<ServerRecord>& candidates, const RequestProfile& profile) = 0;

  virtual std::string_view name() const noexcept = 0;

  /// Whether the ranking may be leased to the client for reuse across calls
  /// (see AgentConfig::lease_s). Only a ranking by predicted completion time
  /// can be: the baselines' contracts are per call (round robin rotates,
  /// random reshuffles, least-loaded re-reads the load every query).
  virtual bool grants_leases() const noexcept { return false; }
};

/// NetSolve's policy: ascending predicted completion time.
class MinCompletionTimePolicy final : public SelectionPolicy {
 public:
  std::vector<proto::ServerCandidate> rank(const std::vector<ServerRecord>& candidates,
                                           const RequestProfile& profile) override;
  std::string_view name() const noexcept override { return "mct"; }
  bool grants_leases() const noexcept override { return true; }
};

/// Rotates through servers in id order, ignoring all state.
class RoundRobinPolicy final : public SelectionPolicy {
 public:
  std::vector<proto::ServerCandidate> rank(const std::vector<ServerRecord>& candidates,
                                           const RequestProfile& profile) override;
  std::string_view name() const noexcept override { return "round_robin"; }

 private:
  std::uint64_t counter_ = 0;
};

/// Uniform random shuffle.
class RandomPolicy final : public SelectionPolicy {
 public:
  explicit RandomPolicy(std::uint64_t seed = 0xc0ffee) : rng_(seed) {}
  std::vector<proto::ServerCandidate> rank(const std::vector<ServerRecord>& candidates,
                                           const RequestProfile& profile) override;
  std::string_view name() const noexcept override { return "random"; }

 private:
  Rng rng_;
};

/// Ascending reported workload, ties broken by descending rating. Uses load
/// but ignores problem size and network distance.
class LeastLoadedPolicy final : public SelectionPolicy {
 public:
  std::vector<proto::ServerCandidate> rank(const std::vector<ServerRecord>& candidates,
                                           const RequestProfile& profile) override;
  std::string_view name() const noexcept override { return "least_loaded"; }
};

/// Factory by name ("mct", "round_robin", "random", "least_loaded").
Result<std::unique_ptr<SelectionPolicy>> make_policy(std::string_view name,
                                                     std::uint64_t seed = 0xc0ffee);

}  // namespace ns::agent
