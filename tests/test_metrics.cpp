// Metrics registry semantics and the METRICS_QUERY wire path.
//
// Covers the contracts DESIGN.md §10 promises: concurrent updates are lost-
// update-free, histogram quantiles sit within one log bucket (a factor of
// kBucketGrowth) of the true sample quantile, snapshots round-trip through
// proto::MetricsDump byte-for-byte, and a live cluster answers METRICS_QUERY
// with its registry contents.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "client/client.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "proto/messages.hpp"
#include "serial/codec.hpp"
#include "testkit/cluster.hpp"

using namespace ns;

TEST(Metrics, ConcurrentUpdatesAreExact) {
  metrics::Registry reg;  // local instance: isolated from the process registry
  auto& counter = reg.counter("test.concurrent_total");
  auto& gauge = reg.gauge("test.concurrent_gauge");
  auto& hist = reg.histogram("test.concurrent_s");

  constexpr int kThreads = 8;
  constexpr int kOps = 100000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kOps; ++i) {
        counter.inc();
        gauge.add(1.0);
        hist.observe(1.0);
      }
    });
  }
  for (auto& t : threads) t.join();

  const auto expected = static_cast<std::uint64_t>(kThreads) * kOps;
  EXPECT_EQ(counter.value(), expected);
  // add() is a CAS loop; every sample is 1.0, so the sums are exact doubles.
  EXPECT_DOUBLE_EQ(gauge.value(), static_cast<double>(expected));
  EXPECT_EQ(hist.count(), expected);
  const auto snap = reg.snapshot();
  const auto* entry = snap.find("test.concurrent_s");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->count, expected);
  EXPECT_DOUBLE_EQ(entry->value, static_cast<double>(expected));
  EXPECT_DOUBLE_EQ(entry->min, 1.0);
  EXPECT_DOUBLE_EQ(entry->max, 1.0);
}

TEST(Metrics, HistogramPercentileWithinOneBucketOfReference) {
  metrics::Registry reg;
  auto& hist = reg.histogram("test.latency_s");
  // Deterministic sample set spread across ~3 decades, all well above
  // kBucketMin so the bucket-0 clamp never applies.
  std::vector<double> samples;
  for (int i = 1; i <= 1000; ++i) {
    samples.push_back(5e-4 * i);
  }
  for (const double v : samples) hist.observe(v);
  std::sort(samples.begin(), samples.end());

  for (const double q : {0.50, 0.95, 0.99}) {
    // Nearest-rank reference quantile over the raw samples.
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(samples.size())));
    const double reference = samples[rank - 1];
    const double got = hist.percentile(q);
    // The histogram reports the holding bucket's upper bound: never below
    // the true quantile, never more than one bucket (kBucketGrowth) above.
    EXPECT_GE(got, reference * (1.0 - 1e-9)) << "q=" << q;
    EXPECT_LE(got, reference * metrics::kBucketGrowth * (1.0 + 1e-9)) << "q=" << q;
  }
  // q=0 degenerates to the minimum sample's bucket; empty histograms report 0.
  EXPECT_GE(hist.percentile(0.0), samples.front() * (1.0 - 1e-9));
  EXPECT_LE(hist.percentile(0.0), samples.front() * metrics::kBucketGrowth * (1.0 + 1e-9));
  EXPECT_DOUBLE_EQ(metrics::Histogram{}.percentile(0.5), 0.0);
}

TEST(Metrics, SnapshotPrefixFilters) {
  metrics::Registry reg;
  reg.counter("alpha.one_total").inc();
  reg.gauge("alpha.level").set(3.0);
  reg.counter("beta.two_total").inc();

  const auto snap = reg.snapshot("alpha.");
  EXPECT_EQ(snap.entries.size(), 2u);
  EXPECT_NE(snap.find("alpha.one_total"), nullptr);
  EXPECT_NE(snap.find("alpha.level"), nullptr);
  EXPECT_EQ(snap.find("beta.two_total"), nullptr);
}

TEST(Metrics, SnapshotRoundTripsThroughMetricsDump) {
  metrics::Registry reg;
  reg.counter("rt.events_total").inc(7);
  reg.gauge("rt.depth").set(2.5);
  auto& hist = reg.histogram("rt.wait_s");
  for (int i = 1; i <= 100; ++i) hist.observe(1e-3 * i);

  const metrics::Snapshot snap = reg.snapshot();
  proto::MetricsDump dump;
  dump.snapshot = snap;
  serial::Encoder enc;
  dump.encode(enc);
  const serial::Bytes bytes = enc.take();
  serial::Decoder dec(bytes);
  auto decoded = proto::MetricsDump::decode(dec);
  ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();

  // Both dump formats are deterministic, so equality is byte-for-byte.
  EXPECT_EQ(decoded.value().snapshot.to_json(), snap.to_json());
  EXPECT_EQ(decoded.value().snapshot.to_text(), snap.to_text());
  const auto* entry = decoded.value().snapshot.find("rt.wait_s");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->count, 100u);
  EXPECT_DOUBLE_EQ(entry->percentile(0.95), snap.find("rt.wait_s")->percentile(0.95));
}

TEST(Metrics, MetricsQueryScrapesLiveCluster) {
  testkit::ClusterConfig config;
  config.servers = testkit::uniform_pool(2, /*workers=*/1);
  config.rating_base = 1000.0;
  auto cluster = testkit::TestCluster::start(std::move(config));
  ASSERT_TRUE(cluster.ok()) << cluster.error().to_string();

  auto client = cluster.value()->make_client();
  client::CallStats stats;
  auto out = client.netsl("simwork", {dsl::DataObject(std::int64_t{5})}, &stats);
  ASSERT_TRUE(out.ok()) << out.error().to_string();
  EXPECT_NE(stats.trace_id, trace::kNoTrace);
  EXPECT_FALSE(stats.spans.empty());

  // Scrape through the agent's connection handler. The in-process cluster
  // shares one registry, so client-, agent-, and server-side instruments
  // all appear in one dump.
  auto snap = cluster.value()->scrape_agent_metrics();
  ASSERT_TRUE(snap.ok()) << snap.error().to_string();
  const auto* calls = snap.value().find("client.calls_total");
  ASSERT_NE(calls, nullptr);
  EXPECT_GE(calls->count, 1u);
  const auto* requests = snap.value().find("server.requests_total");
  ASSERT_NE(requests, nullptr);
  EXPECT_GE(requests->count, 1u);
  const auto* compute = snap.value().find("span.server.compute_s");
  ASSERT_NE(compute, nullptr);
  EXPECT_GE(compute->count, 1u);
  // The agent refreshes its per-server directory gauges at scrape time.
  const auto* alive = snap.value().find("agent.alive_servers");
  ASSERT_NE(alive, nullptr);
  EXPECT_GE(alive->value, 1.0);
  const auto* breaker = snap.value().find("agent.server.server0.breaker");
  ASSERT_NE(breaker, nullptr);

  // Scraping a server exercises the same wire path through the server's
  // handler, with the prefix filter applied on the far side.
  auto server_snap = cluster.value()->scrape_server_metrics(0, "server.");
  ASSERT_TRUE(server_snap.ok()) << server_snap.error().to_string();
  ASSERT_FALSE(server_snap.value().entries.empty());
  for (const auto& entry : server_snap.value().entries) {
    EXPECT_EQ(entry.name.rfind("server.", 0), 0u) << entry.name;
  }
}

// Each span is recorded once, by the node that measured it. The client
// reconstructs server.queue_wait, server.compute and agent.schedule into its
// CallStats from the timings the server and agent report, but those must not
// reach the registry a second time: in an in-process cluster (one shared
// registry) the server-side histogram gains exactly one sample per call.
TEST(Metrics, ServerAndAgentSpansAreCountedOncePerCall) {
  testkit::ClusterConfig config;
  config.servers = testkit::uniform_pool(2, /*workers=*/1);
  config.rating_base = 1000.0;
  auto cluster = testkit::TestCluster::start(std::move(config));
  ASSERT_TRUE(cluster.ok()) << cluster.error().to_string();
  auto client = cluster.value()->make_client();

  auto& compute = metrics::histogram("span.server.compute_s");
  auto& queue_wait = metrics::histogram("span.server.queue_wait_s");
  auto& schedule = metrics::histogram("span.agent.schedule_s");
  const std::uint64_t compute_before = compute.count();
  const std::uint64_t queue_before = queue_wait.count();
  const std::uint64_t schedule_before = schedule.count();

  constexpr std::uint64_t kCalls = 6;
  for (std::uint64_t i = 0; i < kCalls; ++i) {
    client::CallStats stats;
    auto out = client.netsl("simwork", {dsl::DataObject(std::int64_t{2})}, &stats);
    ASSERT_TRUE(out.ok()) << out.error().to_string();
    ASSERT_EQ(stats.attempts, 1);
    // The reconstructed spans still reach the caller.
    const auto has = [&](const char* name) {
      return std::any_of(stats.spans.begin(), stats.spans.end(),
                         [&](const trace::Span& s) { return s.name == name; });
    };
    EXPECT_TRUE(has("server.compute"));
    EXPECT_TRUE(has("server.queue_wait"));
    EXPECT_TRUE(has("agent.schedule"));
  }
  EXPECT_EQ(compute.count() - compute_before, kCalls);
  EXPECT_EQ(queue_wait.count() - queue_before, kCalls);
  EXPECT_EQ(schedule.count() - schedule_before, kCalls);
}
