// Chaos-grade fault tolerance, end to end.
//
// These tests script deterministic network faults (net/fault.hpp) against a
// real in-process cluster and assert the full recovery story: deadline-
// budgeted clients absorb resets/stalls/corruption, the agent's circuit
// breaker quarantines a failing server, half-open probes re-admit it at a
// reduced rating, and crash-killed servers rejoin after restart.
#include <gtest/gtest.h>

#include <vector>

#include "common/clock.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "net/fault.hpp"
#include "testkit/cluster.hpp"

namespace ns {
namespace {

using dsl::DataObject;
using net::FaultMode;
using net::FaultPlan;
using net::FaultRule;

agent::RegistryConfig breaker_registry() {
  agent::RegistryConfig registry;
  registry.max_failures = 2;
  registry.quarantine_s = 0.2;
  registry.quarantine_max_s = 1.0;
  registry.probes_to_close = 2;
  return registry;
}

/// Poll the agent's view of server `name` until `pred` holds or `timeout_s`
/// elapses; returns the final record (if the server is known at all).
template <typename Pred>
std::optional<agent::ServerRecord> wait_for_record(testkit::TestCluster& cluster,
                                                   const std::string& name, Pred pred,
                                                   double timeout_s) {
  const Deadline deadline(timeout_s);
  std::optional<agent::ServerRecord> last;
  while (!deadline.expired()) {
    for (const auto& record : cluster.agent().registry().all()) {
      if (record.name != name) continue;
      last = record;
      if (pred(record)) return last;
    }
    sleep_seconds(0.01);
  }
  return last;
}

// ---- registry-level breaker state machine (no networking) ----

TEST(CircuitBreakerTest, OpensHalfOpensAndCloses) {
  auto registry_config = breaker_registry();
  registry_config.quarantine_s = 0.05;
  agent::ServerRegistry registry(registry_config);

  proto::RegisterServer reg;
  reg.server_name = "flaky";
  reg.endpoint = {"127.0.0.1", 9999};
  reg.mflops = 100.0;
  const auto id = registry.add(reg);

  // Two failures trip the breaker open.
  registry.record_failure(id);
  EXPECT_EQ(registry.find(id)->breaker, agent::BreakerState::kClosed);
  registry.record_failure(id);
  ASSERT_EQ(registry.find(id)->breaker, agent::BreakerState::kOpen);
  EXPECT_FALSE(registry.find(id)->alive);
  EXPECT_TRUE(registry.probe_candidates().empty());

  // After the cooldown the server becomes probe-able (half-open).
  sleep_seconds(0.06);
  auto probes = registry.probe_candidates();
  ASSERT_EQ(probes.size(), 1u);
  EXPECT_EQ(registry.find(id)->breaker, agent::BreakerState::kHalfOpen);

  // A failed probe re-arms the quarantine with a longer cooldown.
  registry.record_probe(id, false);
  ASSERT_EQ(registry.find(id)->breaker, agent::BreakerState::kOpen);
  EXPECT_EQ(registry.find(id)->open_count, 2);

  // Cooldown doubled: 0.1s this round.
  sleep_seconds(0.11);
  ASSERT_EQ(registry.probe_candidates().size(), 1u);

  // Two successful probes close the breaker at a reduced rating.
  registry.record_probe(id, true);
  EXPECT_EQ(registry.find(id)->breaker, agent::BreakerState::kHalfOpen);
  registry.record_probe(id, true);
  auto record = registry.find(id);
  ASSERT_EQ(record->breaker, agent::BreakerState::kClosed);
  EXPECT_TRUE(record->alive);
  EXPECT_DOUBLE_EQ(record->rating_factor, registry_config.readmit_rating_factor);

  // The reduced rating shows up in ranking snapshots...
  auto candidates = registry.candidates_for("dgesv");
  // (the fake registration carried no problems, so query the record itself)
  EXPECT_TRUE(candidates.empty());

  // ...and recovers toward 1 with observed successes.
  registry.record_metrics(id, 1 << 20, 0.01);
  EXPECT_GT(registry.find(id)->rating_factor, registry_config.readmit_rating_factor);
  for (int i = 0; i < 50; ++i) registry.record_metrics(id, 1 << 20, 0.01);
  EXPECT_GT(registry.find(id)->rating_factor, 0.99);
}

TEST(CircuitBreakerTest, WorkloadReportDoesNotBustQuarantine) {
  agent::ServerRegistry registry(breaker_registry());
  proto::RegisterServer reg;
  reg.server_name = "flaky";
  reg.endpoint = {"127.0.0.1", 9998};
  const auto id = registry.add(reg);
  registry.record_failure(id);
  registry.record_failure(id);
  ASSERT_FALSE(registry.find(id)->alive);

  proto::WorkloadReport report;
  report.server_id = id;
  report.workload = 0.0;
  registry.update_workload(report);
  EXPECT_FALSE(registry.find(id)->alive) << "self-report must not bust the quarantine";

  // A same-incarnation re-registration is just a keep-alive refresh and must
  // not bust the quarantine either (servers re-register in the background).
  registry.add(reg);
  EXPECT_FALSE(registry.find(id)->alive) << "keep-alive must not bust the quarantine";

  // An actual restart registers with a new incarnation and resets the breaker.
  reg.incarnation = 42;
  registry.add(reg);
  EXPECT_TRUE(registry.find(id)->alive);
  EXPECT_EQ(registry.find(id)->breaker, agent::BreakerState::kClosed);
}

// ---- end-to-end chaos ----

class ChaosClusterTest : public ::testing::Test {
 protected:
  void start_cluster(std::size_t servers, double deadline_s) {
    testkit::ClusterConfig config;
    config.servers = testkit::uniform_pool(servers);
    config.rating_base = 500.0;
    config.registry = breaker_registry();
    config.ping_period_s = 0.05;
    config.io_timeout_s = 1.0;
    config.client_deadline_s = deadline_s;
    auto cluster = testkit::TestCluster::start(std::move(config));
    ASSERT_TRUE(cluster.ok()) << cluster.error().to_string();
    cluster_ = std::move(cluster).value();
  }

  void TearDown() override {
    net::FaultInjector::instance().disarm_all();
  }

  std::unique_ptr<testkit::TestCluster> cluster_;
};

// The acceptance scenario: a 4-server pool under a chaos schedule mixing
// resets, stalls and corruption at p=0.2 completes 40 jobs with 100%
// success, every call inside its deadline budget.
TEST_F(ChaosClusterTest, FortyJobsSurviveMixedChaosSchedule) {
  start_cluster(4, /*deadline_s=*/20.0);

  for (std::size_t i = 0; i < cluster_->server_count(); ++i) {
    FaultPlan plan;
    plan.seed = 0xc4a05 + i;
    plan.rules.push_back(FaultRule{FaultMode::kReset, 0.2, -1, {}});
    plan.rules.push_back(FaultRule{FaultMode::kStall, 0.05, -1, {}});
    plan.rules.push_back(FaultRule{FaultMode::kCorrupt, 0.2, -1, {}});
    cluster_->arm_fault(i, plan);
  }

  auto client = cluster_->make_client();
  constexpr int kJobs = 40;
  constexpr int kInFlight = 4;
  int succeeded = 0;
  int launched = 0;
  double max_call_seconds = 0.0;
  std::vector<client::RequestHandle> handles;
  while (succeeded < kJobs) {
    while (launched < kJobs && handles.size() < kInFlight) {
      handles.push_back(client.netsl_nb("simwork", {DataObject(std::int64_t{5})}));
      ++launched;
    }
    ASSERT_FALSE(handles.empty());
    auto handle = std::move(handles.back());
    handles.pop_back();
    auto out = handle.wait();
    ASSERT_TRUE(out.ok()) << "job failed under chaos: " << out.error().to_string();
    max_call_seconds = std::max(max_call_seconds, handle.stats().total_seconds);
    ++succeeded;
  }

  EXPECT_EQ(succeeded, kJobs);
  EXPECT_LT(max_call_seconds, 20.0) << "a call exceeded its deadline budget";
  EXPECT_GT(net::FaultInjector::instance().triggered_count(), 0u)
      << "chaos schedule never fired; the test proved nothing";
}

// A server whose link resets every frame gets quarantined; once the fault is
// lifted, half-open pings re-admit it (open -> half_open -> closed) at a
// reduced rating.
TEST_F(ChaosClusterTest, QuarantinedServerIsReadmitted) {
  start_cluster(2, /*deadline_s=*/10.0);

  cluster_->arm_fault(1, FaultPlan::single(FaultMode::kReset, 1.0, 0xdead));

  // Traffic + pings against the dead link trip the breaker.
  auto client = cluster_->make_client();
  for (int i = 0; i < 4; ++i) {
    auto out = client.netsl("simwork", {DataObject(std::int64_t{5})});
    ASSERT_TRUE(out.ok()) << out.error().to_string();
  }
  auto open = wait_for_record(
      *cluster_, "server1",
      [](const agent::ServerRecord& r) { return r.breaker == agent::BreakerState::kOpen; },
      5.0);
  ASSERT_TRUE(open.has_value());
  ASSERT_EQ(open->breaker, agent::BreakerState::kOpen) << "breaker never opened";

  // Heal the link; the cooldown elapses, pings probe, the breaker closes.
  cluster_->disarm_faults();
  auto closed = wait_for_record(
      *cluster_, "server1",
      [](const agent::ServerRecord& r) {
        return r.breaker == agent::BreakerState::kClosed && r.alive;
      },
      5.0);
  ASSERT_TRUE(closed.has_value());
  ASSERT_EQ(closed->breaker, agent::BreakerState::kClosed) << "server never re-admitted";
  EXPECT_LT(closed->rating_factor, 1.0) << "re-admission must start at a reduced rating";

  // The re-admitted server serves real traffic again.
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(client.netsl("simwork", {DataObject(std::int64_t{5})}).ok());
  }
}

// Crash-kill: the pool absorbs a hard server death, and a restarted
// incarnation (same name + endpoint) rejoins the pool.
TEST_F(ChaosClusterTest, CrashKilledServerRejoinsAfterRestart) {
  start_cluster(2, /*deadline_s=*/10.0);
  auto client = cluster_->make_client();

  cluster_->kill_server(1);
  for (int i = 0; i < 6; ++i) {
    auto out = client.netsl("simwork", {DataObject(std::int64_t{5})});
    ASSERT_TRUE(out.ok()) << "pool lost availability after crash-kill: "
                          << out.error().to_string();
  }
  auto dead = wait_for_record(
      *cluster_, "server1",
      [](const agent::ServerRecord& r) { return !r.alive; }, 5.0);
  ASSERT_TRUE(dead.has_value());
  ASSERT_FALSE(dead->alive) << "agent never noticed the crash";

  ASSERT_TRUE(cluster_->restart_server(1).ok());
  auto revived = wait_for_record(
      *cluster_, "server1",
      [](const agent::ServerRecord& r) { return r.alive; }, 5.0);
  ASSERT_TRUE(revived.has_value());
  EXPECT_TRUE(revived->alive) << "restarted server never rejoined";
}

// A request that survives mid-stream resets carries a full per-hop span
// breakdown, and its retries land in the metrics registry — both locally and
// scraped over the wire from the live cluster.
TEST_F(ChaosClusterTest, TraceSpansAndRetryMetricsSurviveResets) {
  testkit::ClusterConfig config;
  config.servers = testkit::uniform_pool(2);
  config.rating_base = 500.0;
  config.registry = breaker_registry();
  // No agent pings: nothing but the client's own attempts may consume the
  // one-shot fault triggers armed below.
  auto cluster = testkit::TestCluster::start(std::move(config));
  ASSERT_TRUE(cluster.ok()) << cluster.error().to_string();
  cluster_ = std::move(cluster).value();

  // Each server's link resets exactly one frame: the first attempt against
  // each server dies mid-stream, and the third attempt (after a re-query)
  // must succeed.
  for (std::size_t i = 0; i < cluster_->server_count(); ++i) {
    FaultPlan plan;
    plan.seed = 0x5e7 + i;
    plan.rules.push_back(FaultRule{FaultMode::kReset, 1.0, /*max_triggers=*/1, {}});
    cluster_->arm_fault(i, plan);
  }

  const auto attempts_before = metrics::counter("client.attempts_total").value();
  const auto retries_before = metrics::counter("client.retries_total").value();

  auto client = cluster_->make_client();
  client::CallStats stats;
  auto out = client.netsl("simwork", {DataObject(std::int64_t{5})}, &stats);
  ASSERT_TRUE(out.ok()) << out.error().to_string();
  EXPECT_EQ(stats.attempts, 3) << "two one-shot resets must cost exactly two retries";
  EXPECT_NE(stats.trace_id, trace::kNoTrace);

  // Span breakdown: present, causally ordered, inside the call window.
  ASSERT_FALSE(stats.spans.empty());
  int attempt_spans = 0;
  bool saw_compute = false;
  for (std::size_t i = 0; i < stats.spans.size(); ++i) {
    const auto& span = stats.spans[i];
    EXPECT_GE(span.duration_s, 0.0) << span.name;
    EXPECT_LE(span.start_s + span.duration_s, stats.total_seconds + 1e-6) << span.name;
    if (i > 0) {
      EXPECT_GE(span.start_s, stats.spans[i - 1].start_s - 1e-9)
          << "span starts must be non-decreasing at " << span.name;
    }
    if (span.name == "client.attempt") ++attempt_spans;
    if (span.name == "server.compute") saw_compute = true;
  }
  EXPECT_EQ(attempt_spans, stats.attempts);
  EXPECT_TRUE(saw_compute) << "winning attempt lost its server-side spans";

  // The registry counted the same attempts the client reported...
  EXPECT_EQ(metrics::counter("client.attempts_total").value() - attempts_before,
            static_cast<std::uint64_t>(stats.attempts));
  EXPECT_EQ(metrics::counter("client.retries_total").value() - retries_before,
            static_cast<std::uint64_t>(stats.attempts - 1));

  // ...and the same story is scrapeable from the live cluster over the wire.
  auto snap = cluster_->scrape_agent_metrics();
  ASSERT_TRUE(snap.ok()) << snap.error().to_string();
  const auto* attempt_hist = snap.value().find("span.client.attempt_s");
  ASSERT_NE(attempt_hist, nullptr);
  EXPECT_GE(attempt_hist->count, static_cast<std::uint64_t>(stats.attempts));
  EXPECT_NE(snap.value().find("client.retries_total"), nullptr);
  EXPECT_NE(snap.value().find("server.shed_total"), nullptr);
}

// Deadline budgets are hard: with every server stalling, a budgeted call
// fails with kDeadlineExceeded close to its budget, not after
// max_retries * io_timeout.
TEST_F(ChaosClusterTest, BudgetedCallFailsFastWhenPoolIsDown) {
  start_cluster(1, /*deadline_s=*/0.8);

  cluster_->arm_fault(0, FaultPlan::single(FaultMode::kStall, 1.0, 0xa11));

  auto client = cluster_->make_client();
  const Stopwatch watch;
  auto out = client.netsl("simwork", {DataObject(std::int64_t{5})});
  const double elapsed = watch.elapsed();
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.error().code, ErrorCode::kDeadlineExceeded);
  EXPECT_LT(elapsed, 3.0) << "budget was not enforced promptly";
}

// Servers shed queued work whose budget lapsed while waiting for a worker.
TEST_F(ChaosClusterTest, ServerShedsExpiredWork) {
  testkit::ClusterConfig config;
  config.servers = testkit::uniform_pool(1, /*workers=*/1);
  config.servers[0].slowdown_mode = server::SlowdownMode::kSleep;
  config.rating_base = 500.0;
  config.io_timeout_s = 0.5;
  config.client_deadline_s = 0.4;
  auto cluster = testkit::TestCluster::start(std::move(config));
  ASSERT_TRUE(cluster.ok());
  cluster_ = std::move(cluster).value();

  // The worker-occupying long job (~1s) comes from an unbudgeted client:
  // under the cluster's 0.4s budget, admission would shed it as infeasible
  // before it ever held the worker.
  client::ClientConfig occupier_config;
  occupier_config.agents = {cluster_->agent_endpoint()};
  occupier_config.io_timeout_s = 5.0;
  occupier_config.deadline_s = 0.0;
  client::NetSolveClient occupier(occupier_config);
  auto long_job = occupier.netsl_nb("simwork", {DataObject(std::int64_t{500})});
  // Queue a short-budget call behind it: by the time a slot frees, the
  // budget has lapsed and the server sheds the job instead of executing it.
  sleep_seconds(0.05);  // let the long job claim the worker
  auto client = cluster_->make_client();
  auto out = client.netsl("simwork", {DataObject(std::int64_t{5})});
  EXPECT_FALSE(out.ok());

  const Deadline deadline(5.0);
  while (cluster_->server(0).shed_dequeue() == 0 && !deadline.expired()) {
    sleep_seconds(0.01);
  }
  EXPECT_GE(cluster_->server(0).shed_dequeue(), 1u) << "server never shed the expired job";
  (void)long_job.wait();
}

}  // namespace
}  // namespace ns
