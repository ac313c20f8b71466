// Agent leases on ranked lists (bound function handles): a latency-bound
// call reuses the list an earlier query returned instead of asking the agent
// again, and every condition that ends or revokes a lease sends the next call
// back to the agent.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "common/rng.hpp"
#include "linalg/matrix.hpp"
#include "testkit/cluster.hpp"

namespace ns {
namespace {

using dsl::DataObject;

constexpr double kRating = 500.0;
// Tests that need every call inside one lease lease for far longer than
// they run, so only the behaviour under test (a revocation, a split), not
// the lease running out on a slow host, decides where calls go.
constexpr double kLongLease = 30.0;

std::vector<DataObject> ddot_args(std::size_t n) {
  return {DataObject(linalg::Vector(n, 1.0)), DataObject(linalg::Vector(n, 2.0))};
}

std::unique_ptr<testkit::TestCluster> start_cluster(testkit::ClusterConfig config) {
  config.rating_base = kRating;
  auto cluster = testkit::TestCluster::start(std::move(config));
  EXPECT_TRUE(cluster.ok()) << cluster.error().to_string();
  return cluster.ok() ? std::move(cluster).value() : nullptr;
}

/// A client whose transfer reports never reach the agent: the servers'
/// predictions stay equal, so only pending counts tell them apart.
std::unique_ptr<client::NetSolveClient> quiet_client(testkit::TestCluster& cluster) {
  client::ClientConfig cc;
  cc.agents = {cluster.agent_endpoint()};
  cc.report_metrics = false;
  return std::make_unique<client::NetSolveClient>(cc);
}

std::uint64_t queries(testkit::TestCluster& cluster) { return cluster.agent().stats().queries; }

/// Runs `calls` sequential netsl calls; returns how many queries they cost.
std::uint64_t queries_for(testkit::TestCluster& cluster, client::NetSolveClient& client,
                          const std::string& problem, const std::vector<DataObject>& args,
                          int calls) {
  const auto before = queries(cluster);
  for (int i = 0; i < calls; ++i) {
    auto out = client.netsl(problem, args);
    EXPECT_TRUE(out.ok()) << out.error().to_string();
  }
  return queries(cluster) - before;
}

TEST(LeaseTest, SequentialSmallCallsShareOneQuery) {
  testkit::ClusterConfig config;
  config.servers = testkit::uniform_pool(2);
  auto cluster = start_cluster(std::move(config));
  ASSERT_TRUE(cluster);
  auto client = cluster->make_client();

  constexpr int kCalls = 40;
  const auto leases_before = metrics::counter("client.leased_calls_total").value();
  const auto asked = queries_for(*cluster, client, "ddot", ddot_args(64), kCalls);
  EXPECT_GE(asked, 1u);
  EXPECT_LE(asked, static_cast<std::uint64_t>(kCalls / 4))
      << "a leased ddot(64) should reuse its ranked list";
  EXPECT_GE(metrics::counter("client.leased_calls_total").value() - leases_before,
            static_cast<std::uint64_t>(kCalls) - asked);
}

TEST(LeaseTest, ConcurrentLeasedClientsSplitEvenly) {
  testkit::ClusterConfig config;
  config.servers = testkit::uniform_pool(2, /*workers=*/2);
  // No report resets the pending counts mid-test: the split must come from
  // the lease charges alone.
  for (auto& s : config.servers) s.report_period_s = 30.0;
  config.lease_s = kLongLease;
  auto cluster = start_cluster(std::move(config));
  ASSERT_TRUE(cluster);

  constexpr int kClients = 4;
  constexpr int kCalls = 10;
  std::vector<std::unique_ptr<client::NetSolveClient>> clients;
  for (int c = 0; c < kClients; ++c) clients.push_back(quiet_client(*cluster));
  std::vector<std::set<std::string>> servers_used(kClients);
  std::vector<int> leased(kClients, 0);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      for (int i = 0; i < kCalls; ++i) {
        client::CallStats stats;
        auto out = clients[c]->netsl("ddot", ddot_args(64), &stats);
        EXPECT_TRUE(out.ok()) << out.error().to_string();
        servers_used[c].insert(stats.server_name);
        if (stats.leased) ++leased[c];
      }
    });
  }
  for (auto& t : threads) t.join();

  std::map<std::string, int> clients_per_server;
  for (int c = 0; c < kClients; ++c) {
    ASSERT_EQ(servers_used[c].size(), 1u) << "client " << c << " should stay on its lease";
    EXPECT_GE(leased[c], kCalls - 2) << "client " << c;
    clients_per_server[*servers_used[c].begin()] += 1;
  }
  ASSERT_EQ(clients_per_server.size(), 2u);
  for (const auto& [name, count] : clients_per_server) EXPECT_EQ(count, 2) << name;
}

TEST(LeaseTest, ConcurrentCallsOnOneHandleSpread) {
  testkit::ClusterConfig config;
  config.servers = testkit::uniform_pool(2);
  auto cluster = start_cluster(std::move(config));
  ASSERT_TRUE(cluster);
  auto client = quiet_client(*cluster);

  // One lease admits one call in flight: the rest of a netsl_nb burst on
  // the same handle ask the agent, whose pending counts spread them.
  std::vector<client::RequestHandle> handles;
  for (int i = 0; i < 16; ++i) handles.push_back(client->netsl_nb("ddot", ddot_args(64)));
  std::set<std::string> servers;
  for (auto& h : handles) {
    auto out = h.wait();
    ASSERT_TRUE(out.ok()) << out.error().to_string();
    EXPECT_DOUBLE_EQ(out.value().at(0).as_double(), 128.0);
    servers.insert(h.stats().server_name);
  }
  EXPECT_EQ(servers.size(), 2u);
}

TEST(LeaseTest, KilledLeasedServerCostsOneFailedAttempt) {
  testkit::ClusterConfig config;
  config.servers = testkit::uniform_pool(2);
  config.lease_s = kLongLease;
  auto cluster = start_cluster(std::move(config));
  ASSERT_TRUE(cluster);
  auto client = cluster->make_client();

  client::CallStats stats;
  ASSERT_TRUE(client.netsl("ddot", ddot_args(64), &stats).ok());
  ASSERT_TRUE(client.netsl("ddot", ddot_args(64), &stats).ok());
  ASSERT_TRUE(stats.leased);
  const std::string leased_server = stats.server_name;
  cluster->kill_server(leased_server == "server0" ? 0 : 1);

  auto out = client.netsl("ddot", ddot_args(64), &stats);
  ASSERT_TRUE(out.ok()) << out.error().to_string();
  EXPECT_LE(stats.attempts, 2);
  EXPECT_NE(stats.server_name, leased_server);

  // The failure revoked the lease: the next call asks the agent.
  const auto before = queries(*cluster);
  ASSERT_TRUE(client.netsl("ddot", ddot_args(64), &stats).ok());
  EXPECT_FALSE(stats.leased);
  EXPECT_EQ(queries(*cluster), before + 1);
  EXPECT_NE(stats.server_name, leased_server);
}

TEST(LeaseTest, HeavyCallsQueryEveryTime) {
  testkit::ClusterConfig config;
  config.servers = testkit::uniform_pool(2);
  auto cluster = start_cluster(std::move(config));
  ASSERT_TRUE(cluster);
  auto client = cluster->make_client();

  constexpr int kCalls = 5;
  // Kernel-bound: simulated compute of ~10 ms.
  EXPECT_EQ(queries_for(*cluster, client, "simwork", {DataObject(std::int64_t{5})}, kCalls),
            static_cast<std::uint64_t>(kCalls));
  Rng rng(4);
  const auto a = linalg::Matrix::random_diag_dominant(128, rng);
  const auto b = linalg::random_vector(128, rng);
  EXPECT_EQ(queries_for(*cluster, client, "dgesv", {DataObject(a), DataObject(b)}, kCalls),
            static_cast<std::uint64_t>(kCalls));
  // Bandwidth-bound: 1 MiB operands.
  EXPECT_EQ(queries_for(*cluster, client, "ddot", ddot_args(std::size_t{1} << 17), kCalls),
            static_cast<std::uint64_t>(kCalls));
}

TEST(LeaseTest, QueuedReplyRevokesLease) {
  testkit::ClusterConfig config;
  config.servers = testkit::uniform_pool(1, /*workers=*/1);
  config.lease_s = kLongLease;
  auto cluster = start_cluster(std::move(config));
  ASSERT_TRUE(cluster);
  auto small = cluster->make_client();
  auto heavy = cluster->make_client();

  client::CallStats stats;
  ASSERT_TRUE(small.netsl("ddot", ddot_args(64), &stats).ok());
  // ~0.3 s of simulated compute takes the server's one worker.
  auto blocker = heavy.netsl_nb("simwork", {DataObject(std::int64_t{150})});
  sleep_seconds(0.03);

  // Still inside the lease, so no query; the call waits behind simwork.
  const auto before = queries(*cluster);
  ASSERT_TRUE(small.netsl("ddot", ddot_args(64), &stats).ok());
  EXPECT_TRUE(stats.leased);
  EXPECT_EQ(queries(*cluster), before);
  ASSERT_TRUE(blocker.wait().ok());

  // The queued reply revoked the lease.
  ASSERT_TRUE(small.netsl("ddot", ddot_args(64), &stats).ok());
  EXPECT_FALSE(stats.leased);
  EXPECT_EQ(queries(*cluster), before + 1);
}

TEST(LeaseTest, PublicQueryAlwaysReachesAgent) {
  testkit::ClusterConfig config;
  config.servers = testkit::uniform_pool(2);
  auto cluster = start_cluster(std::move(config));
  ASSERT_TRUE(cluster);
  auto client = cluster->make_client();

  ASSERT_TRUE(client.netsl("ddot", ddot_args(64)).ok());  // takes a lease
  const auto before = queries(*cluster);
  for (int i = 0; i < 5; ++i) {
    auto list = client.query("ddot", ddot_args(64));
    ASSERT_TRUE(list.ok()) << list.error().to_string();
    EXPECT_FALSE(list.value().candidates.empty());
  }
  EXPECT_EQ(queries(*cluster), before + 5);
}

TEST(LeaseTest, ZeroLeaseRestoresOneQueryPerCall) {
  testkit::ClusterConfig config;
  config.servers = testkit::uniform_pool(2);
  config.lease_s = 0.0;
  auto cluster = start_cluster(std::move(config));
  ASSERT_TRUE(cluster);
  auto client = cluster->make_client();

  constexpr int kCalls = 20;
  EXPECT_EQ(queries_for(*cluster, client, "ddot", ddot_args(64), kCalls),
            static_cast<std::uint64_t>(kCalls));
}

}  // namespace
}  // namespace ns
