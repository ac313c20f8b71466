// Adaptive overload control: deadline-aware admission (EDF ordering,
// infeasible-at-admission sheds, expired-at-dequeue sheds), per-client
// fair-share quotas, CoDel-style sojourn shedding, the AIMD concurrency
// limit, and the cooperative retry_after backpressure loop. All scenarios
// use simwork under SlowdownMode::kSleep so "service time" is wall-clock
// sleep, not CPU — the tests run identically on a one-core host. The job
// lifecycle's own guarantees close the file: a queued job holds no thread,
// and its reply outlives the reactor's idle sweep.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <map>
#include <thread>
#include <vector>

#include "client/client.hpp"
#include "common/clock.hpp"
#include "common/metrics.hpp"
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

serial::Bytes encode_solve(std::uint64_t request_id, std::int64_t mflop,
                           double deadline_s = 0.0, std::uint64_t client_id = 0) {
  proto::SolveRequest msg;
  msg.request_id = request_id;
  msg.problem = "simwork";
  msg.args = {DataObject(mflop)};
  msg.deadline_s = deadline_s;
  msg.client_id = client_id;
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

// Threads in this process right now.
std::size_t thread_count() {
  std::size_t n = 0;
  for (const auto& task : std::filesystem::directory_iterator("/proc/self/task")) {
    (void)task;
    ++n;
  }
  return n;
}

// One full-speed single-worker server with the given admission knobs; the
// rating is pinned so simwork(m) sleeps m/rating seconds exactly.
Result<std::unique_ptr<testkit::TestCluster>> single_server_cluster(
    double rating, int max_queue, const server::AdmissionConfig& admission,
    double client_deadline_s = 0.0) {
  testkit::ClusterConfig config;
  config.servers = testkit::uniform_pool(1, /*workers=*/1);
  config.servers[0].slowdown_mode = server::SlowdownMode::kSleep;
  config.servers[0].max_queue = max_queue;
  config.servers[0].admission = admission;
  config.rating_base = rating;
  config.io_timeout_s = 10.0;
  config.client_deadline_s = client_deadline_s;
  return testkit::TestCluster::start(std::move(config));
}

// ---- satellite bugfix: shed at dequeue, never computed ----

// A job whose deadline budget lapses while it queues must be dropped when
// the dispatcher reaches it — before any compute — with a RETRYABLE error
// (another server may still make the deadline), and counted separately from
// admission-time sheds.
TEST(OverloadTest, ExpiredInQueueJobIsShedAtDequeueNeverComputed) {
  auto cluster = single_server_cluster(/*rating=*/500.0, /*max_queue=*/16, {});
  ASSERT_TRUE(cluster.ok()) << cluster.error().to_string();
  auto& server = cluster.value()->server(0);

  // Occupy the single worker for ~1s with an undeadlined job.
  auto occupier = cluster.value()->make_client();
  auto long_job = occupier.netsl_nb("simwork", {DataObject(std::int64_t{500})});
  ASSERT_TRUE(eventually([&] { return server.current_workload() >= 1.0; }));

  // Queue a short-budget job behind it: predicted service (~10ms) fits the
  // 0.4s budget at admission, but the budget lapses long before a slot
  // frees, so the dispatcher must shed it instead of computing.
  auto conn = net::TcpConnection::connect(server.endpoint());
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(net::send_message(conn.value(),
                                static_cast<std::uint16_t>(proto::MessageType::kSolveRequest),
                                encode_solve(7001, 5, /*deadline_s=*/0.4))
                  .ok());
  auto result = recv_solve_result(conn.value(), 5.0);
  ASSERT_TRUE(result.ok()) << result.error().to_string();
  EXPECT_EQ(static_cast<ErrorCode>(result.value().error_code),
            ErrorCode::kServerOverloaded)
      << "dequeue shed must be retryable, not terminal";
  EXPECT_TRUE(is_retryable(static_cast<ErrorCode>(result.value().error_code)));

  EXPECT_GE(server.shed_dequeue(), 1u);
  EXPECT_EQ(server.shed_admission(), 0u);

  ASSERT_TRUE(long_job.wait().ok());
  // Only the occupier ever computed; the expired job never reached a kernel.
  EXPECT_EQ(server.completed(), 1u);

  auto snap = cluster.value()->scrape_server_metrics(0, "server.");
  ASSERT_TRUE(snap.ok());
  const auto* dequeue = snap.value().find("server.shed_dequeue_total");
  ASSERT_NE(dequeue, nullptr);
  EXPECT_GE(dequeue->count, 1u);
}

// ---- EDF ordering ----

// With the worker occupied, three queued jobs must start in deadline order,
// not arrival order.
TEST(OverloadTest, EdfDispatchesEarliestDeadlineFirst) {
  auto cluster = single_server_cluster(/*rating=*/1000.0, /*max_queue=*/16, {});
  ASSERT_TRUE(cluster.ok()) << cluster.error().to_string();
  auto& server = cluster.value()->server(0);

  auto occupier = cluster.value()->make_client();
  auto long_job = occupier.netsl_nb("simwork", {DataObject(std::int64_t{1000})});
  ASSERT_TRUE(eventually([&] { return server.current_workload() >= 1.0; }));

  // Arrival order A, B, C; deadline order B (2.0s) < C (3.5s) < A (5.0s).
  struct Waiter {
    net::TcpConnection conn;
    double done_at = 0.0;
    bool ok = false;
  };
  const double deadlines[3] = {5.0, 2.0, 3.5};
  std::vector<Waiter> waiters;
  for (int i = 0; i < 3; ++i) {
    auto conn = net::TcpConnection::connect(server.endpoint());
    ASSERT_TRUE(conn.ok());
    ASSERT_TRUE(
        net::send_message(conn.value(),
                          static_cast<std::uint16_t>(proto::MessageType::kSolveRequest),
                          encode_solve(7100 + static_cast<std::uint64_t>(i), 100,
                                       deadlines[i]))
            .ok());
    waiters.push_back(Waiter{std::move(conn).value()});
    sleep_seconds(0.02);  // pin arrival order
  }

  const Stopwatch watch;
  std::vector<std::thread> threads;
  for (auto& w : waiters) {
    threads.emplace_back([&w, &watch] {
      auto result = recv_solve_result(w.conn, 8.0);
      w.done_at = watch.elapsed();
      w.ok = result.ok() &&
             result.value().error_code == static_cast<std::uint16_t>(ErrorCode::kOk);
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_TRUE(long_job.wait().ok());

  for (const auto& w : waiters) EXPECT_TRUE(w.ok);
  // B before C before A.
  EXPECT_LT(waiters[1].done_at, waiters[2].done_at);
  EXPECT_LT(waiters[2].done_at, waiters[0].done_at);
}

// ---- acceptance (a): goodput under 3x offered load ----

// Under 3x the measured single-pool capacity with per-call deadlines, the
// admission queue must keep goodput (in-deadline successes per second) at
// >= 85% of capacity, and no successful call may finish past its budget.
TEST(OverloadTest, GoodputSurvivesThreeTimesOfferedLoad) {
  auto cluster = single_server_cluster(/*rating=*/1000.0, /*max_queue=*/64, {});
  ASSERT_TRUE(cluster.ok()) << cluster.error().to_string();

  // Measure capacity with a short closed-loop run: sequential 0.1s jobs,
  // including the full client/agent/transfer overhead per call.
  auto warm = cluster.value()->make_client();
  const int warm_jobs = 8;
  const Stopwatch cap_watch;
  for (int i = 0; i < warm_jobs; ++i) {
    auto out = warm.netsl("simwork", {DataObject(std::int64_t{100})});
    ASSERT_TRUE(out.ok()) << out.error().to_string();
  }
  const double capacity = warm_jobs / cap_watch.elapsed();

  client::ClientConfig cc;
  cc.agents = {cluster.value()->agent_endpoint()};
  cc.io_timeout_s = 10.0;
  cc.deadline_s = 0.5;
  client::NetSolveClient budgeted(cc);

  // Open-loop arrivals at 3x capacity for a 3s window.
  const double rate = 3.0 * capacity;
  const double window_s = 3.0;
  const int n = static_cast<int>(rate * window_s);
  std::vector<client::RequestHandle> handles;
  handles.reserve(static_cast<std::size_t>(n));
  const Stopwatch load_watch;
  for (int i = 0; i < n; ++i) {
    const double wait = i / rate - load_watch.elapsed();
    if (wait > 0.0) sleep_seconds(wait);
    handles.push_back(budgeted.netsl_nb("simwork", {DataObject(std::int64_t{100})}));
  }

  int successes = 0;
  for (auto& h : handles) {
    auto out = h.wait();
    if (!out.ok()) continue;
    ++successes;
    // No admitted-then-completed job finishes past its deadline (small
    // scheduling slack for the final client-side bookkeeping).
    EXPECT_LE(h.stats().total_seconds, cc.deadline_s + 0.05);
  }
  // Goodput over the offered-load window: arrivals stop at window_s, and the
  // post-window drain (failing calls waiting out their budgets) would only
  // add idle denominator time.
  const double goodput = successes / window_s;
  EXPECT_GE(goodput, 0.85 * capacity)
      << "goodput " << goodput << "/s vs capacity " << capacity << "/s (" << successes
      << "/" << n << " in-deadline)";

  // The overload actually engaged the control plane.
  const auto& server = cluster.value()->server(0);
  EXPECT_GE(server.shed_admission() + server.shed_dequeue(), 1u);
}

// ---- acceptance (b): per-client fairness ----

// One heavy client at 10x a light client's rate must not starve it: with
// quotas on, the light client's success rate stays >= 95%.
TEST(OverloadTest, HeavyClientCannotStarveLightClient) {
  server::AdmissionConfig admission;
  admission.quota_fraction = 0.25;  // 2 of the 8 queue slots per client
  auto cluster = single_server_cluster(/*rating=*/1000.0, /*max_queue=*/8, admission);
  ASSERT_TRUE(cluster.ok()) << cluster.error().to_string();

  const auto honored_before = metrics::counter("client.retry_after_honored_total").value();

  client::ClientConfig base;
  base.agents = {cluster.value()->agent_endpoint()};
  base.io_timeout_s = 10.0;
  base.deadline_s = 1.0;
  client::ClientConfig light_cc = base;
  light_cc.client_id = 0x11;
  client::ClientConfig heavy_cc = base;
  heavy_cc.client_id = 0x22;
  client::NetSolveClient light(light_cc);
  client::NetSolveClient heavy(heavy_cc);

  // Light: 5/s for 4s. Heavy: 50/s for 4s — 10x the rate, and together
  // ~2.75x the pool's ~20 jobs/s capacity (0.05s jobs, one worker).
  const auto drive = [](client::NetSolveClient& client, double rate, int jobs,
                        std::vector<client::RequestHandle>& out) {
    const Stopwatch watch;
    for (int i = 0; i < jobs; ++i) {
      const double wait = i / rate - watch.elapsed();
      if (wait > 0.0) sleep_seconds(wait);
      out.push_back(client.netsl_nb("simwork", {DataObject(std::int64_t{50})}));
    }
  };
  std::vector<client::RequestHandle> light_handles;
  std::vector<client::RequestHandle> heavy_handles;
  light_handles.reserve(20);
  heavy_handles.reserve(200);
  std::thread heavy_thread(
      [&] { drive(heavy, /*rate=*/50.0, /*jobs=*/200, heavy_handles); });
  drive(light, /*rate=*/5.0, /*jobs=*/20, light_handles);
  heavy_thread.join();

  int light_ok = 0;
  for (auto& h : light_handles) light_ok += h.wait().ok() ? 1 : 0;
  int heavy_ok = 0;
  for (auto& h : heavy_handles) heavy_ok += h.wait().ok() ? 1 : 0;

  EXPECT_GE(light_ok, 19) << "light client success rate fell below 95% ("
                          << light_ok << "/20; heavy got " << heavy_ok << "/200)";
  // The quota actually engaged against the heavy client...
  EXPECT_GE(cluster.value()->server(0).shed_quota(), 1u);
  // ...and its retry_after hints were honored by the client backoff.
  EXPECT_GT(metrics::counter("client.retry_after_honored_total").value(), honored_before);
}

// ---- CoDel sojourn shedder + AIMD concurrency limit ----

// Sustained pressure with no deadlines: the CoDel shedder must start
// dropping once sojourn stays above target, and the AIMD limit must back
// off below the static worker count on overload signals.
TEST(OverloadTest, CodelShedsAndAimdBacksOffUnderSustainedPressure) {
  server::AdmissionConfig admission;
  admission.codel_target_s = 0.05;
  admission.aimd = true;
  testkit::ClusterConfig config;
  config.servers = testkit::uniform_pool(1, /*workers=*/2);
  config.servers[0].slowdown_mode = server::SlowdownMode::kSleep;
  config.servers[0].max_queue = 64;
  config.servers[0].admission = admission;
  config.rating_base = 1000.0;
  config.io_timeout_s = 10.0;
  auto cluster = testkit::TestCluster::start(std::move(config));
  ASSERT_TRUE(cluster.ok()) << cluster.error().to_string();
  auto& server = cluster.value()->server(0);
  EXPECT_EQ(server.concurrency_limit(), 2);
  const auto backoffs_before = metrics::counter("server.aimd_backoff_total").value();

  // Flood: 40 undeadlined 0.1s jobs against ~20 jobs/s of capacity. Queue
  // sojourn blows through the 50ms target almost immediately.
  auto client = cluster.value()->make_client();
  std::vector<client::RequestHandle> handles;
  handles.reserve(40);
  for (int i = 0; i < 40; ++i) {
    handles.push_back(client.netsl_nb("simwork", {DataObject(std::int64_t{100})}));
  }

  EXPECT_TRUE(eventually([&] { return server.shed_codel() >= 1; }, 8.0))
      << "CoDel never shed under sustained queue pressure";
  // The instantaneous limit recovers within one service time (one success at
  // the floor restores it), so assert the monotonic backoff count instead of
  // racing a poll against the oscillation.
  EXPECT_TRUE(eventually(
      [&] { return metrics::counter("server.aimd_backoff_total").value() > backoffs_before; },
      8.0))
      << "AIMD never backed off the concurrency limit";

  for (auto& h : handles) (void)h.wait();  // calls may fail; drain them all

  // With the pressure gone, additive increase restores the full worker count.
  EXPECT_TRUE(eventually([&] { return server.concurrency_limit() == 2; }, 5.0))
      << "AIMD never recovered after the flood drained";

  auto snap = cluster.value()->scrape_server_metrics(0, "server.");
  ASSERT_TRUE(snap.ok());
  const auto* codel = snap.value().find("server.shed_codel_total");
  ASSERT_NE(codel, nullptr);
  EXPECT_GE(codel->count, 1u);
  const auto* sojourn = snap.value().find("server.queue_sojourn_s");
  ASSERT_NE(sojourn, nullptr);
  EXPECT_GE(sojourn->count, 1u);
}

// ---- the job lifecycle: jobs are data, not parked threads ----

// A 1-worker server with one long job running and 32 more queued behind it
// over one raw pipelined connection: the queue grows, the thread count does
// not. Cancelled and finished alike, every solve gets exactly one reply.
TEST(OverloadTest, QueuedJobsHoldNoThread) {
  auto cluster = single_server_cluster(/*rating=*/1000.0, /*max_queue=*/0, {});
  ASSERT_TRUE(cluster.ok()) << cluster.error().to_string();
  auto& server = cluster.value()->server(0);
  const auto solve = static_cast<std::uint16_t>(proto::MessageType::kSolveRequest);
  constexpr std::uint64_t kLongId = 9000;
  constexpr int kQueued = 32;

  auto conn = net::TcpConnection::connect(server.endpoint());
  ASSERT_TRUE(conn.ok()) << conn.error().to_string();
  // ~4 s on the single worker: the queue below builds up behind it.
  ASSERT_TRUE(net::send_message(conn.value(), solve, encode_solve(kLongId, 4000)).ok());
  ASSERT_TRUE(eventually([&] { return server.current_workload() >= 1.0; }));

  const std::size_t threads_before = thread_count();
  for (int i = 1; i <= kQueued; ++i) {
    ASSERT_TRUE(net::send_message(conn.value(), solve, encode_solve(kLongId + i, 10)).ok());
    // One at a time, so a burst of frames cannot grow the handler pool on
    // its own: only a solve that keeps its thread could.
    ASSERT_TRUE(eventually([&] { return server.current_workload() >= 1.0 + i; }))
        << "solve " << i << " never queued";
  }
  const std::size_t threads_queued = thread_count();
  EXPECT_LE(threads_queued, threads_before + 4)
      << kQueued << " queued solves grew the process from " << threads_before << " to "
      << threads_queued << " threads";

  // Cancel every other queued job; the rest run once the long one is done.
  for (int i = 2; i <= kQueued; i += 2) {
    auto ack = client::cancel_request(server.endpoint(), kLongId + i);
    ASSERT_TRUE(ack.ok()) << ack.error().to_string();
    EXPECT_EQ(ack.value().outcome, proto::CancelOutcome::kQueued);
  }

  std::map<std::uint64_t, int> replies;
  for (int i = 0; i <= kQueued; ++i) {
    auto result = recv_solve_result(conn.value(), 15.0);
    ASSERT_TRUE(result.ok()) << result.error().to_string();
    const std::uint64_t id = result.value().request_id;
    ++replies[id];
    const bool cancelled = id != kLongId && (id - kLongId) % 2 == 0;
    EXPECT_EQ(static_cast<ErrorCode>(result.value().error_code),
              cancelled ? ErrorCode::kCancelled : ErrorCode::kOk)
        << "request " << id;
  }
  EXPECT_EQ(replies.size(), static_cast<std::size_t>(kQueued + 1));
  for (const auto& [id, count] : replies) EXPECT_EQ(count, 1) << "request " << id;
  EXPECT_FALSE(net::recv_message(conn.value(), 0.3).ok()) << "a solve was answered twice";
  EXPECT_EQ(server.cancelled_queued(), static_cast<std::uint64_t>(kQueued / 2));
  EXPECT_EQ(server.completed(), static_cast<std::uint64_t>(1 + kQueued / 2));
}

// A queued job's handler returned long ago, so only its hold on the
// connection keeps the reactor's idle sweep (max(io_timeout_s, 5 s)) off the
// client's mux channel until the reply is queued.
TEST(OverloadTest, ReplyOutlivesReactorIdleTimeout) {
  testkit::ClusterConfig config;
  config.servers = testkit::uniform_pool(1, /*workers=*/1);
  config.servers[0].slowdown_mode = server::SlowdownMode::kSleep;
  config.rating_base = 1000.0;
  config.io_timeout_s = 0.5;  // the server's idle sweep: 5 s
  auto cluster = testkit::TestCluster::start(std::move(config));
  ASSERT_TRUE(cluster.ok()) << cluster.error().to_string();
  auto& server = cluster.value()->server(0);

  // Occupy the worker from another connection for ~3 s.
  auto occupier = net::TcpConnection::connect(server.endpoint());
  ASSERT_TRUE(occupier.ok()) << occupier.error().to_string();
  ASSERT_TRUE(net::send_message(occupier.value(),
                                static_cast<std::uint16_t>(proto::MessageType::kSolveRequest),
                                encode_solve(9100, 3000))
                  .ok());
  ASSERT_TRUE(eventually([&] { return server.current_workload() >= 1.0; }));

  // ~3 s queued + ~4 s computing: silent on its connection past the sweep.
  client::ClientConfig cc;
  cc.agents = {cluster.value()->agent_endpoint()};
  cc.io_timeout_s = 30.0;
  client::NetSolveClient client(std::move(cc));
  const Stopwatch watch;
  client::CallStats stats;
  auto out = client.netsl("simwork", {DataObject(std::int64_t{4000})}, &stats);
  ASSERT_TRUE(out.ok()) << out.error().to_string();
  EXPECT_GT(watch.elapsed(), 6.0);
  EXPECT_EQ(stats.attempts, 1) << "the reply did not arrive on the first connection";

  auto first = recv_solve_result(occupier.value(), 5.0);
  ASSERT_TRUE(first.ok()) << first.error().to_string();
  EXPECT_EQ(first.value().error_code, 0);
  EXPECT_EQ(server.completed(), 2u);
}

}  // namespace
}  // namespace ns
