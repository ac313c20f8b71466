// Tail-latency armor: hedged requests, cross-server cancellation, and
// graceful drain. These tests pin the full loop — a straggling primary
// triggers a backup attempt, the fast replica wins, the loser is actively
// cancelled on its server (not silently abandoned), and a draining server
// finishes its queue, turns away new work, and disappears from the agent's
// directory without losing a single job.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "client/client.hpp"
#include "common/clock.hpp"
#include "common/metrics.hpp"
#include "net/pool.hpp"
#include "net/transport.hpp"
#include "proto/messages.hpp"
#include "testkit/cluster.hpp"

namespace ns {
namespace {

using dsl::DataObject;

// Poll `pred` until it holds or `timeout_s` lapses.
template <typename Pred>
bool eventually(Pred pred, double timeout_s = 5.0) {
  const Deadline deadline(timeout_s);
  while (!deadline.expired()) {
    if (pred()) return true;
    sleep_seconds(0.005);
  }
  return pred();
}

serial::Bytes encode_solve(std::uint64_t request_id, std::int64_t mflop) {
  proto::SolveRequest msg;
  msg.request_id = request_id;
  msg.problem = "simwork";
  msg.args = {DataObject(mflop)};
  serial::Encoder enc;
  msg.encode(enc);
  return enc.take();
}

Result<proto::SolveResult> recv_solve_result(net::TcpConnection& conn, double timeout_s) {
  auto reply = net::recv_message(conn, timeout_s);
  NS_RETURN_IF_ERROR(reply);
  if (reply.value().type != static_cast<std::uint16_t>(proto::MessageType::kSolveResult)) {
    return make_error(ErrorCode::kProtocol, "expected SOLVE_RESULT");
  }
  serial::Decoder dec(reply.value().payload);
  return proto::SolveResult::decode(dec);
}

std::size_t thread_count() {
  std::size_t n = 0;
  for (const auto& task : std::filesystem::directory_iterator("/proc/self/task")) {
    (void)task;
    ++n;
  }
  return n;
}

struct TempDir {
  std::string path;
  TempDir() {
    const char* base = std::getenv("NS_DURABLE_TMPDIR");
    std::string tmpl_s =
        std::string(base != nullptr && *base != '\0' ? base : "/tmp") + "/ns_hedge_XXXXXX";
    std::vector<char> tmpl(tmpl_s.begin(), tmpl_s.end());
    tmpl.push_back('\0');
    const char* made = ::mkdtemp(tmpl.data());
    path = made != nullptr ? made : "/tmp/ns_hedge_fallback";
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

// server0 at full speed, server1 at half: the agent's clear first pick is
// server0, and a frozen report period keeps it that way.
testkit::ClusterConfig fast_and_slow_pair() {
  testkit::ClusterConfig config;
  config.rating_base = 500.0;
  testkit::ClusterServerSpec fast;
  fast.name = "server0";
  fast.speed = 1.0;
  fast.slowdown_mode = server::SlowdownMode::kSleep;
  fast.report_period_s = 30.0;  // freeze the ranking at the initial report
  testkit::ClusterServerSpec slow = fast;
  slow.name = "server1";
  slow.speed = 0.5;
  config.servers = {fast, slow};
  config.io_timeout_s = 10.0;
  // Static hedge delay: min_samples is unreachable on purpose so a warmed
  // process-global latency histogram from earlier tests cannot perturb it.
  config.client_hedge_min_samples = ~0ull;
  return config;
}

// A stalled primary: server0 is the agent's clear first pick (full speed vs
// half speed), but a background-load spike stretches its service time far
// past the hedge delay. The backup launched on server1 must win, the call
// must succeed fast, and the loser on server0 must be observed *cancelled*,
// never completed.
TEST(HedgeTest, BackupWinsAndLoserIsCancelled) {
  testkit::ClusterConfig config = fast_and_slow_pair();
  config.client_hedge_delay_s = 0.15;

  auto cluster = testkit::TestCluster::start(config);
  ASSERT_TRUE(cluster.ok()) << cluster.error().to_string();

  // The agent still believes server0 is idle and fast; in reality the load
  // spike stretches simwork(25) from ~50 ms to ~2.5 s of cancellable work.
  cluster.value()->server(0).set_background_load(50.0);

  const auto hedges_before = metrics::counter("client.hedge_total").value();
  const auto wins_before = metrics::counter("client.hedge_wins_total").value();
  const auto cancels_before = metrics::counter("client.cancel_sent_total").value();

  auto client = cluster.value()->make_client();
  client::CallStats stats;
  const Stopwatch watch;
  auto out = client.netsl("simwork", {DataObject(std::int64_t{25})}, &stats);
  const double elapsed = watch.elapsed();
  ASSERT_TRUE(out.ok()) << out.error().to_string();

  // The backup fired, won on the half-speed replica, and beat the stall.
  EXPECT_TRUE(stats.hedged);
  EXPECT_EQ(stats.server_name, "server1");
  EXPECT_LT(elapsed, 2.0) << "hedge did not rescue the call from the straggler";
  EXPECT_GE(metrics::counter("client.hedge_total").value(), hedges_before + 1);
  EXPECT_GE(metrics::counter("client.hedge_wins_total").value(), wins_before + 1);
  EXPECT_GE(metrics::counter("client.cancel_sent_total").value(), cancels_before + 1);

  // The loser is reaped, not leaked: server0 observes the CANCEL and unwinds
  // mid-compute. It must not also count the job as completed.
  EXPECT_TRUE(eventually(
      [&] { return cluster.value()->server(0).cancelled_running() >= 1; }))
      << "loser was never cancelled on server0";
  EXPECT_EQ(cluster.value()->server(0).completed(), 0u);

  auto snap = cluster.value()->scrape_server_metrics(0, "server.");
  ASSERT_TRUE(snap.ok()) << snap.error().to_string();
  const auto* cancelled = snap.value().find("server.cancelled_running_total");
  ASSERT_NE(cancelled, nullptr);
  EXPECT_GE(cancelled->count, 1u);
}

// A hedged call keeps the durability armor of a plain one. The hedge delay
// outlasts the test, so the race never grows a second attempt; when the
// journaling primary crashes mid-solve, the call reattaches to the restarted
// server and collects the recovered job's answer instead of resubmitting it
// to server1 (a duplicate solve).
TEST(HedgeTest, HedgedCallReattachesAfterPrimaryCrash) {
  TempDir data;
  testkit::ClusterConfig config = fast_and_slow_pair();
  config.servers[0].data_dir = data.path;
  config.client_hedge_delay_s = 600.0;
  config.client_reattach_s = 20.0;
  config.io_timeout_s = 30.0;
  auto cluster = testkit::TestCluster::start(config);
  ASSERT_TRUE(cluster.ok()) << cluster.error().to_string();

  const auto reattach_before = metrics::counter("client.reattach_total").value();
  auto client = cluster.value()->make_client();
  // simwork(500) at rating 500: ~1 s of sliced, checkpointable sleep.
  auto handle = client.netsl_nb("simwork", {DataObject(std::int64_t{500})});
  ASSERT_TRUE(eventually(
      [&] { return cluster.value()->server(0).current_workload() >= 1.0; }, 10.0))
      << "the call never reached server0";
  sleep_seconds(0.2);  // mid-solve: admitted, journaled, computing

  cluster.value()->crash_server(0);
  ASSERT_TRUE(cluster.value()->restart_server(0).ok());

  auto out = handle.wait();
  ASSERT_TRUE(out.ok()) << out.error().to_string();
  EXPECT_FALSE(handle.stats().hedged);
  EXPECT_EQ(metrics::counter("client.reattach_total").value(), reattach_before + 1);
  EXPECT_EQ(cluster.value()->server(1).completed(), 0u)
      << "the crashed primary's job was solved again on server1";
}

// Hedges and cancels start no thread: a race waits on the caller's own
// condvar, the hedge fires from that wait, and the loser's CANCEL is a frame
// posted on its channel. Destroying the client while the loser still
// computes is clean: nothing in flight references it.
TEST(HedgeTest, HedgesAndCancelsSpawnNoThread) {
  testkit::ClusterConfig config = fast_and_slow_pair();
  config.client_hedge_delay_s = 0.15;
  auto cluster = testkit::TestCluster::start(config);
  ASSERT_TRUE(cluster.ok()) << cluster.error().to_string();
  cluster.value()->server(0).set_background_load(50.0);

  // Warm both servers' mux channels (a reader thread each) and the agent
  // connection, so the call itself has nothing legitimate to start.
  for (std::size_t i = 0; i < 2; ++i) {
    ASSERT_TRUE(
        net::ConnectionPool::instance().channel(cluster.value()->server(i).endpoint(), 2.0).ok());
  }
  ASSERT_TRUE(cluster.value()->make_client().ping_agent().ok());

  std::atomic<bool> sampling{true};
  std::atomic<std::size_t> peak{0};
  std::thread sampler([&] {
    while (sampling.load()) {
      const std::size_t n = thread_count();
      if (n > peak.load()) peak.store(n);
      sleep_seconds(0.001);
    }
  });
  sleep_seconds(0.01);
  const std::size_t before = thread_count();  // the sampler included
  const auto cancels_before = metrics::counter("client.cancel_sent_total").value();
  client::CallStats stats;
  auto out = [&] {
    // The client dies on return, while the loser on server0 still unwinds.
    auto client = cluster.value()->make_client();
    return client.netsl("simwork", {DataObject(std::int64_t{25})}, &stats);
  }();
  sampling.store(false);
  sampler.join();

  ASSERT_TRUE(out.ok()) << out.error().to_string();
  EXPECT_TRUE(stats.hedged);
  EXPECT_EQ(stats.server_name, "server1");
  EXPECT_GE(metrics::counter("client.cancel_sent_total").value(), cancels_before + 1);
  EXPECT_LE(peak.load(), before) << "a hedged call grew the process from " << before
                                 << " to " << peak.load() << " threads";
  EXPECT_TRUE(eventually(
      [&] { return cluster.value()->server(0).cancelled_running() >= 1; }))
      << "the loser was never cancelled on server0";
}

// Cross-server cancellation at both lifecycle stages, over raw connections
// so the request ids are chosen by the test: a queued job is dropped before
// any compute happens, a running job unwinds at a cancellation checkpoint,
// and both report kCancelled to their (still-waiting) callers.
TEST(HedgeTest, CancelQueuedAndRunningJobs) {
  testkit::ClusterConfig config;
  config.rating_base = 500.0;
  testkit::ClusterServerSpec spec;
  spec.name = "server0";
  spec.workers = 1;  // one running slot; the second job must queue
  spec.slowdown_mode = server::SlowdownMode::kSleep;
  config.servers = {spec};
  config.io_timeout_s = 10.0;
  auto cluster = testkit::TestCluster::start(config);
  ASSERT_TRUE(cluster.ok()) << cluster.error().to_string();
  auto& server = cluster.value()->server(0);
  const net::Endpoint endpoint = server.endpoint();

  // Job A occupies the single worker (~2 s of sliced, cancellable sleep).
  auto conn_a = net::TcpConnection::connect(endpoint);
  ASSERT_TRUE(conn_a.ok()) << conn_a.error().to_string();
  ASSERT_TRUE(net::send_message(conn_a.value(),
                                static_cast<std::uint16_t>(proto::MessageType::kSolveRequest),
                                encode_solve(1001, 1000))
                  .ok());
  sleep_seconds(0.3);  // let A reach the worker before B arrives

  auto conn_b = net::TcpConnection::connect(endpoint);
  ASSERT_TRUE(conn_b.ok()) << conn_b.error().to_string();
  ASSERT_TRUE(net::send_message(conn_b.value(),
                                static_cast<std::uint16_t>(proto::MessageType::kSolveRequest),
                                encode_solve(1002, 1000))
                  .ok());
  sleep_seconds(0.2);  // let B land in the queue

  // Cancelling an id the server never saw is a clean no-op ack.
  auto unknown = client::cancel_request(endpoint, 4242);
  ASSERT_TRUE(unknown.ok()) << unknown.error().to_string();
  EXPECT_EQ(unknown.value().outcome, proto::CancelOutcome::kCompleted);

  // B is still queued: it must be dropped without ever running.
  auto ack_b = client::cancel_request(endpoint, 1002);
  ASSERT_TRUE(ack_b.ok()) << ack_b.error().to_string();
  EXPECT_EQ(ack_b.value().outcome, proto::CancelOutcome::kQueued);
  auto result_b = recv_solve_result(conn_b.value(), 10.0);
  ASSERT_TRUE(result_b.ok()) << result_b.error().to_string();
  EXPECT_EQ(static_cast<ErrorCode>(result_b.value().error_code), ErrorCode::kCancelled);
  EXPECT_TRUE(eventually([&] { return server.cancelled_queued() == 1; }));

  // A is mid-compute: the kernel unwinds at its next checkpoint.
  auto ack_a = client::cancel_request(endpoint, 1001);
  ASSERT_TRUE(ack_a.ok()) << ack_a.error().to_string();
  EXPECT_EQ(ack_a.value().outcome, proto::CancelOutcome::kRunning);
  auto result_a = recv_solve_result(conn_a.value(), 10.0);
  ASSERT_TRUE(result_a.ok()) << result_a.error().to_string();
  EXPECT_EQ(static_cast<ErrorCode>(result_a.value().error_code), ErrorCode::kCancelled);
  EXPECT_TRUE(eventually([&] { return server.cancelled_running() == 1; }));

  // Nothing completed, nothing double-counted as shed.
  EXPECT_EQ(server.completed(), 0u);
  EXPECT_EQ(server.shed_admission() + server.shed_dequeue(), 0u);
}

// Graceful drain under load: every in-flight and queued job still succeeds
// (finished locally or retried elsewhere), the drained server admits nothing
// new, and the agent stops routing to it the moment it deregisters.
TEST(HedgeTest, DrainUnderLoadLosesNoJobs) {
  testkit::ClusterConfig config;
  config.rating_base = 500.0;
  config.servers = testkit::uniform_pool(2, /*workers=*/2);
  for (auto& spec : config.servers) spec.slowdown_mode = server::SlowdownMode::kSleep;
  config.io_timeout_s = 10.0;
  // Drain-rejected work is retryable; give the client budget to fail over.
  config.client_deadline_s = 20.0;
  auto cluster = testkit::TestCluster::start(config);
  ASSERT_TRUE(cluster.ok()) << cluster.error().to_string();

  auto client = cluster.value()->make_client();
  std::vector<client::RequestHandle> handles;
  for (int i = 0; i < 12; ++i) {
    handles.push_back(client.netsl_nb("simwork", {DataObject(std::int64_t{50})}));
  }

  // Drain server0 while the burst is in flight.
  auto ack = cluster.value()->drain_server(0, /*deadline_s=*/5.0);
  ASSERT_TRUE(ack.ok()) << ack.error().to_string();
  EXPECT_TRUE(ack.value().started);

  // Zero lost jobs: every call succeeds, on whichever server.
  for (auto& handle : handles) {
    auto out = handle.wait();
    EXPECT_TRUE(out.ok()) << out.error().to_string();
  }
  EXPECT_TRUE(eventually([&] { return cluster.value()->server(0).drained(); }, 10.0));

  // The agent's directory reflects the deregistration.
  EXPECT_TRUE(eventually([&] {
    for (const auto& record : cluster.value()->agent().registry().all()) {
      if (record.name == "server0") return !record.alive;
    }
    return false;
  })) << "agent still considers server0 alive after drain";

  // Zero new admissions: a direct request bounces with a retryable error.
  auto conn = net::TcpConnection::connect(cluster.value()->server(0).endpoint());
  ASSERT_TRUE(conn.ok()) << conn.error().to_string();
  ASSERT_TRUE(net::send_message(conn.value(),
                                static_cast<std::uint16_t>(proto::MessageType::kSolveRequest),
                                encode_solve(7001, 10))
                  .ok());
  auto rejected = recv_solve_result(conn.value(), 10.0);
  ASSERT_TRUE(rejected.ok()) << rejected.error().to_string();
  EXPECT_EQ(static_cast<ErrorCode>(rejected.value().error_code),
            ErrorCode::kServerOverloaded);
  EXPECT_GE(cluster.value()->server(0).drain_rejected(), 1u);

  // New traffic lands on the survivor.
  client::CallStats stats;
  auto out = client.netsl("simwork", {DataObject(std::int64_t{10})}, &stats);
  ASSERT_TRUE(out.ok()) << out.error().to_string();
  EXPECT_EQ(stats.server_name, "server1");
}

}  // namespace
}  // namespace ns
