// E4 (Table II): fault tolerance under injected server failures.
//
// Part 1 (error-reply mode): 40 jobs run against a 4-server pool in which
// every server fails each request independently with probability p (the
// request is received, then refused — the costly failure the retry logic
// must absorb). Two client configurations:
//
//   no-retry -- max_retries = 1: the request fails if its first server does
//   retry    -- max_retries = 8: walk the ranked list / re-query (NetSolve)
//
// The agent is configured for transient failures (no blacklisting) so p
// stays constant through the run. Reported: success rate, mean job time,
// and mean attempts. Expected shape: no-retry success ~= (1 - p); retry
// keeps 100% success at a time cost growing like 1/(1-p).
//
// Part 2 (chaos modes): the same farm driven through the deterministic
// network fault injector (net/fault.hpp) with deadline-budgeted clients and
// the agent's circuit breaker enabled. Modes: mid-stream connection reset,
// read/write stall, payload corruption (CRC-caught), a hard crash-kill +
// restart of one server mid-run, and the mixed schedule used by the chaos
// acceptance test. Reported per mode: success rate, mean attempts, and p95
// job latency. The run is recorded as a machine-readable baseline in
// BENCH_fault.json (written to the current working directory).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <thread>

#include "bench/harness.hpp"

using namespace ns;
using dsl::DataObject;

namespace {

// --quick shrinks the farm so the run fits a CI smoke budget.
int g_jobs = 40;
constexpr int kConcurrency = 4;

struct CaseResult {
  double success_rate = 0;
  double mean_time = 0;
  double mean_attempts = 0;
};

CaseResult run_case(double failure_prob, bool retry) {
  testkit::ClusterConfig config;
  config.servers = testkit::uniform_pool(4, /*workers=*/1);
  for (auto& s : config.servers) {
    s.slowdown_mode = server::SlowdownMode::kSleep;
    s.failure.mode = server::FailureSpec::Mode::kErrorReply;
    s.failure.probability = failure_prob;
  }
  config.rating_base = 1000.0;
  // Transient failures: never blacklist, so p is stationary for the run.
  config.registry.max_failures = 1 << 30;
  auto cluster = testkit::TestCluster::start(std::move(config));
  if (!cluster.ok()) {
    std::fprintf(stderr, "cluster failed: %s\n", cluster.error().to_string().c_str());
    std::exit(1);
  }

  client::ClientConfig cc;
  cc.agents = {cluster.value()->agent_endpoint()};
  cc.max_retries = retry ? 8 : 1;
  client::NetSolveClient client(cc);

  std::mutex mu;
  std::int64_t attempts_total = 0;
  int observed = 0;
  auto farm = bench::run_farm(g_jobs, kConcurrency, [&](int) {
    client::CallStats stats;
    auto out = client.netsl("simwork", {DataObject(std::int64_t{40})}, &stats);
    if (out.ok()) {
      std::lock_guard<std::mutex> lock(mu);
      attempts_total += stats.attempts;
      ++observed;
    }
    return out.ok();
  });

  CaseResult result;
  result.success_rate =
      static_cast<double>(g_jobs - farm.failures) / static_cast<double>(g_jobs);
  result.mean_time = bench::summarize(farm.job_seconds).mean;
  result.mean_attempts =
      observed > 0 ? static_cast<double>(attempts_total) / observed : 0.0;
  return result;
}

// ---- Part 2: injector-driven chaos modes ----

constexpr double kDeadlineS = 20.0;

struct ChaosCase {
  const char* name;
  net::FaultPlan plan;  // empty rules = no injector fault (crash-kill case)
  bool crash_kill = false;
  // simwork units per job; the crash-kill case uses longer jobs so the farm
  // is still in flight when the server dies and again when it rejoins.
  std::int64_t work = 5;
};

struct ChaosResult {
  double success_rate = 0;
  double mean_attempts = 0;
  double mean_time = 0;
  double p95_time = 0;
  double makespan = 0;
};

ChaosResult run_chaos_case(const ChaosCase& c) {
  testkit::ClusterConfig config;
  config.servers = testkit::uniform_pool(4, /*workers=*/1);
  for (auto& s : config.servers) s.slowdown_mode = server::SlowdownMode::kSleep;
  config.rating_base = 1000.0;
  // Circuit breaker on: faulty servers are quarantined, probed half-open by
  // the agent's ping loop, and re-admitted at reduced rating.
  config.registry.max_failures = 2;
  config.registry.quarantine_s = 0.2;
  config.registry.quarantine_max_s = 1.0;
  config.registry.probes_to_close = 2;
  config.ping_period_s = 0.05;
  config.io_timeout_s = 1.0;  // bounds the cost of an injected stall
  config.client_deadline_s = kDeadlineS;
  auto cluster = testkit::TestCluster::start(std::move(config));
  if (!cluster.ok()) {
    std::fprintf(stderr, "cluster failed: %s\n", cluster.error().to_string().c_str());
    std::exit(1);
  }

  for (std::size_t i = 0; i < cluster.value()->server_count(); ++i) {
    if (c.plan.rules.empty()) break;
    net::FaultPlan plan = c.plan;
    plan.seed += i;  // decorrelate the per-link fault streams
    cluster.value()->arm_fault(i, plan);
  }

  std::thread killer;
  if (c.crash_kill) {
    killer = std::thread([&cluster] {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      cluster.value()->kill_server(0);
      std::this_thread::sleep_for(std::chrono::milliseconds(600));
      if (auto st = cluster.value()->restart_server(0); !st.ok()) {
        std::fprintf(stderr, "restart failed: %s\n", st.error().to_string().c_str());
      }
    });
  }

  auto client = cluster.value()->make_client();
  std::mutex mu;
  std::int64_t attempts_total = 0;
  int observed = 0;
  auto farm = bench::run_farm(g_jobs, kConcurrency, [&](int) {
    client::CallStats stats;
    auto out = client.netsl("simwork", {DataObject(c.work)}, &stats);
    std::lock_guard<std::mutex> lock(mu);
    attempts_total += stats.attempts;
    if (out.ok()) ++observed;
    return out.ok();
  });

  if (killer.joinable()) killer.join();
  cluster.value()->disarm_faults();

  const auto summary = bench::summarize(farm.job_seconds);
  ChaosResult result;
  result.success_rate =
      static_cast<double>(g_jobs - farm.failures) / static_cast<double>(g_jobs);
  result.mean_attempts =
      static_cast<double>(attempts_total) / static_cast<double>(g_jobs);
  result.mean_time = summary.mean;
  result.p95_time = summary.p95;
  result.makespan = farm.makespan;
  (void)observed;
  return result;
}

// ---- Part 3: agent high availability (E4c) ----

struct HaResult {
  double success_rate = 0;
  double mean_time = 0;
  double p95_time = 0;
  double makespan = 0;
  std::uint64_t failovers = 0;
  std::uint64_t degraded_calls = 0;
};

// A 2-agent / 4-server farm whose primary agent is crash-killed mid-run:
// the scheduler tier itself fails while jobs are in flight, and the client's
// agent failover (plus the degraded-mode candidate cache) must keep the
// success rate at 100%.
HaResult run_ha_case() {
  testkit::ClusterConfig config;
  config.servers = testkit::uniform_pool(4, /*workers=*/1);
  for (auto& s : config.servers) s.slowdown_mode = server::SlowdownMode::kSleep;
  config.agent_count = 2;
  config.rating_base = 1000.0;
  config.client_deadline_s = kDeadlineS;
  auto cluster = testkit::TestCluster::start(std::move(config));
  if (!cluster.ok()) {
    std::fprintf(stderr, "cluster failed: %s\n", cluster.error().to_string().c_str());
    std::exit(1);
  }

  const auto failovers_before = metrics::counter("client.agent_failover_total").value();
  const auto degraded_before = metrics::counter("client.degraded_calls_total").value();

  // Kill while the first wave of jobs is still in flight (each job is
  // ~40 ms), so later waves must re-query through the surviving agent.
  std::thread killer([&cluster] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    cluster.value()->kill_agent(0);
  });

  auto client = cluster.value()->make_client();
  auto farm = bench::run_farm(g_jobs, kConcurrency, [&](int) {
    return client.netsl("simwork", {DataObject(std::int64_t{40})}).ok();
  });
  killer.join();

  const auto summary = bench::summarize(farm.job_seconds);
  HaResult result;
  result.success_rate =
      static_cast<double>(g_jobs - farm.failures) / static_cast<double>(g_jobs);
  result.mean_time = summary.mean;
  result.p95_time = summary.p95;
  result.makespan = farm.makespan;
  result.failovers = metrics::counter("client.agent_failover_total").value() - failovers_before;
  result.degraded_calls =
      metrics::counter("client.degraded_calls_total").value() - degraded_before;
  return result;
}

// ---- Part 4: hedged requests vs stragglers (E4d) ----

struct HedgeResult {
  double success_rate = 0;
  double mean_time = 0;
  double p95_time = 0;
  double p99_time = 0;
  double makespan = 0;
  std::uint64_t hedges = 0;
  std::uint64_t hedge_wins = 0;
  std::uint64_t cancels_sent = 0;
  std::uint64_t server_cancelled = 0;
  std::uint64_t server_shed = 0;
};

// Nearest-rank percentile; Summary only carries p95 and tail-latency armor
// is judged at p99.
double percentile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const auto rank = static_cast<std::size_t>(q * static_cast<double>(xs.size() - 1) + 0.5);
  return xs[std::min(rank, xs.size() - 1)];
}

// The straggler experiment: every server's link stalls 10% of frames (the
// classic slow-node/slow-link tail), bounded only by the 1 s io timeout.
// Without hedging a stalled request costs a full timeout before the retry
// walk recovers it; with hedging the backup fires after the observed-p95
// delay and the stall never reaches the caller's latency. Losing attempts
// must be actively reaped — cancelled on their server or shed — never left
// running as ghost work.
HedgeResult run_hedge_case(bool hedged) {
  testkit::ClusterConfig config;
  config.servers = testkit::uniform_pool(4, /*workers=*/1);
  for (auto& s : config.servers) s.slowdown_mode = server::SlowdownMode::kSleep;
  config.rating_base = 1000.0;
  config.registry.max_failures = 1 << 30;  // stalls are stationary, not a breaker test
  config.io_timeout_s = 1.0;
  config.client_deadline_s = kDeadlineS;
  if (hedged) {
    // Static fallback until the per-problem attempt histogram warms up,
    // then its p95 drives the delay (the adaptive path under test).
    config.client_hedge_delay_s = 0.1;
    config.client_hedge_quantile = 0.95;
    config.client_hedge_min_samples = 10;
  }
  auto cluster = testkit::TestCluster::start(std::move(config));
  if (!cluster.ok()) {
    std::fprintf(stderr, "cluster failed: %s\n", cluster.error().to_string().c_str());
    std::exit(1);
  }
  for (std::size_t i = 0; i < cluster.value()->server_count(); ++i) {
    net::FaultPlan plan = net::FaultPlan::single(net::FaultMode::kStall, 0.1, 0x4ed6e);
    plan.seed += i;
    cluster.value()->arm_fault(i, plan);
  }

  const auto hedges_before = metrics::counter("client.hedge_total").value();
  const auto wins_before = metrics::counter("client.hedge_wins_total").value();
  const auto cancels_before = metrics::counter("client.cancel_sent_total").value();
  std::uint64_t cancelled_before = 0, shed_before = 0;
  for (std::size_t i = 0; i < cluster.value()->server_count(); ++i) {
    auto& s = cluster.value()->server(i);
    cancelled_before += s.cancelled_queued() + s.cancelled_running();
    shed_before += s.shed_admission() + s.shed_dequeue();
  }

  auto client = cluster.value()->make_client();
  auto farm = bench::run_farm(g_jobs, kConcurrency, [&](int) {
    return client.netsl("simwork", {DataObject(std::int64_t{40})}).ok();
  });
  // Let fire-and-forget loser cancellations land before reading counters.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  cluster.value()->disarm_faults();

  const auto summary = bench::summarize(farm.job_seconds);
  HedgeResult result;
  result.success_rate =
      static_cast<double>(g_jobs - farm.failures) / static_cast<double>(g_jobs);
  result.mean_time = summary.mean;
  result.p95_time = summary.p95;
  result.p99_time = percentile(farm.job_seconds, 0.99);
  result.makespan = farm.makespan;
  result.hedges = metrics::counter("client.hedge_total").value() - hedges_before;
  result.hedge_wins = metrics::counter("client.hedge_wins_total").value() - wins_before;
  result.cancels_sent = metrics::counter("client.cancel_sent_total").value() - cancels_before;
  std::uint64_t cancelled_after = 0, shed_after = 0;
  for (std::size_t i = 0; i < cluster.value()->server_count(); ++i) {
    auto& s = cluster.value()->server(i);
    cancelled_after += s.cancelled_queued() + s.cancelled_running();
    shed_after += s.shed_admission() + s.shed_dequeue();
  }
  result.server_cancelled = cancelled_after - cancelled_before;
  result.server_shed = shed_after - shed_before;
  return result;
}

// ---- Part 5: adaptive overload control on/off at 3x offered load (E4e) ----

struct OverloadResult {
  double capacity = 0;     // closed-loop jobs/s through the full stack
  double goodput = 0;      // in-deadline successes per offered-window second
  int successes = 0;
  int offered = 0;
  double sojourn_p95 = 0;  // server-side queue sojourn p95 at end of run
  std::uint64_t shed_admission = 0;
  std::uint64_t shed_dequeue = 0;
  std::uint64_t shed_codel = 0;
};

constexpr double kOverloadDeadlineS = 0.5;
constexpr double kCodelTargetS = 0.35;

// One full-speed single-worker server driven open-loop at 3x its measured
// capacity with 0.5s per-call deadlines. Controlled: the admission policy
// (EDF + infeasible/expired sheds + CoDel sojourn shedder). Uncontrolled:
// deadline_aware = false — FIFO dispatch, every admitted job computed no
// matter how stale, max_queue the only defence.
// The uncontrolled queue fills with jobs whose callers have already given
// up, so almost every completion is ghost work and goodput collapses.
OverloadResult run_overload_case(bool controlled, double window_s) {
  testkit::ClusterConfig config;
  config.servers = testkit::uniform_pool(1, /*workers=*/1);
  config.servers[0].slowdown_mode = server::SlowdownMode::kSleep;
  config.servers[0].max_queue = 64;
  if (controlled) {
    config.servers[0].admission.codel_target_s = kCodelTargetS;
  } else {
    config.servers[0].admission.deadline_aware = false;
  }
  config.rating_base = 1000.0;
  config.io_timeout_s = 10.0;
  auto cluster = testkit::TestCluster::start(std::move(config));
  if (!cluster.ok()) {
    std::fprintf(stderr, "cluster failed: %s\n", cluster.error().to_string().c_str());
    std::exit(1);
  }

  // Closed-loop capacity: sequential 0.1s jobs, including the full client/
  // agent/transfer overhead per call.
  auto warm = cluster.value()->make_client();
  const int warm_jobs = 6;
  const Stopwatch cap_watch;
  for (int i = 0; i < warm_jobs; ++i) {
    auto out = warm.netsl("simwork", {DataObject(std::int64_t{100})});
    if (!out.ok()) {
      std::fprintf(stderr, "warm job failed: %s\n", out.error().to_string().c_str());
      std::exit(1);
    }
  }
  const double capacity = warm_jobs / cap_watch.elapsed();

  client::ClientConfig cc;
  cc.agents = {cluster.value()->agent_endpoint()};
  cc.io_timeout_s = 10.0;
  cc.deadline_s = kOverloadDeadlineS;
  client::NetSolveClient budgeted(cc);

  const double rate = 3.0 * capacity;
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
  for (auto& h : handles) successes += h.wait().ok() ? 1 : 0;

  OverloadResult r;
  r.capacity = capacity;
  r.offered = n;
  r.successes = successes;
  r.goodput = successes / window_s;
  const auto& server = cluster.value()->server(0);
  r.sojourn_p95 = server.sojourn_p95();
  r.shed_admission = server.shed_admission();
  r.shed_dequeue = server.shed_dequeue();
  r.shed_codel = server.shed_codel();
  return r;
}

// ---- Part 6: durable long jobs vs a mid-run crash (E4f) ----

struct DurableCaseResult {
  double completion_rate = 0;
  double wasted_ratio = 0;  // (Mflop actually computed - Mflop required) / required
  double makespan = 0;
  std::uint64_t recovered = 0;
  std::uint64_t resumed = 0;
};

// A single 4-worker server runs a batch of long simwork jobs and is
// crash-killed (journal frozen, no terminal records — the unclean death)
// once half the total Mflop has been computed, then restarted. With the
// write-ahead journal on, the restarted server replays it, resumes every
// job from its last checkpoint, and the clients reattach via PROBE/WAIT:
// nothing is resubmitted and only the post-checkpoint tail is recomputed.
// With durability off the restarted server has never heard of the jobs, so
// the clients' retry walk resubmits them from scratch and the entire
// pre-crash half of the work is burned again. The wasted-work ratio is
// measured from the server.work_mflop_total counter the compute slices
// maintain: (computed - required) / required.
DurableCaseResult run_durable_case(bool recovery, std::int64_t work_units, int jobs) {
  testkit::ClusterConfig config;
  config.servers = testkit::uniform_pool(1, /*workers=*/kConcurrency);
  config.servers[0].slowdown_mode = server::SlowdownMode::kSleep;
  char data_dir[] = "/tmp/ns_bench_durable_XXXXXX";
  if (recovery) {
    if (mkdtemp(data_dir) == nullptr) {
      std::fprintf(stderr, "mkdtemp failed\n");
      std::exit(1);
    }
    config.servers[0].data_dir = data_dir;
    config.servers[0].checkpoint_interval = 25;
    config.servers[0].journal_fsync = false;  // bench the protocol, not the disk
  }
  config.rating_base = 1000.0;
  // The crash window is the experiment, not a breaker test: keep the dead
  // server listed so the retry walk keeps knocking until the restart lands.
  config.registry.max_failures = 1 << 30;
  auto cluster = testkit::TestCluster::start(std::move(config));
  if (!cluster.ok()) {
    std::fprintf(stderr, "cluster failed: %s\n", cluster.error().to_string().c_str());
    std::exit(1);
  }

  client::ClientConfig cc;
  cc.agents = {cluster.value()->agent_endpoint()};
  cc.max_retries = 12;  // backoff must ride out the 0.3s dark window
  // Reattach is the recovery path: ride out the crash window at the same
  // endpoint and adopt the resumed job's result. Without durability the
  // client falls back to its ordinary retry walk (resubmission).
  cc.reattach_s = recovery ? 30.0 : 0.0;
  client::NetSolveClient client(cc);

  const auto work_before = metrics::counter("server.work_mflop_total").value();
  const double required =
      static_cast<double>(work_units) * static_cast<double>(jobs);

  // Crash once half the required Mflop has been computed, then restart on
  // the same port/data_dir after a short dark window.
  std::thread killer([&] {
    const Deadline guard(30.0);
    while (!guard.expired()) {
      const auto done = metrics::counter("server.work_mflop_total").value() - work_before;
      if (static_cast<double>(done) >= 0.5 * required) break;
      sleep_seconds(0.01);
    }
    cluster.value()->crash_server(0);
    sleep_seconds(0.3);
    if (auto st = cluster.value()->restart_server(0); !st.ok()) {
      std::fprintf(stderr, "restart failed: %s\n", st.error().to_string().c_str());
    }
  });

  auto farm = bench::run_farm(jobs, kConcurrency, [&](int) {
    return client.netsl("simwork", {DataObject(work_units)}).ok();
  });
  killer.join();

  DurableCaseResult result;
  result.completion_rate =
      static_cast<double>(jobs - farm.failures) / static_cast<double>(jobs);
  const auto computed = metrics::counter("server.work_mflop_total").value() - work_before;
  result.wasted_ratio = (static_cast<double>(computed) - required) / required;
  result.makespan = farm.makespan;
  result.recovered = cluster.value()->server(0).jobs_recovered();
  result.resumed = cluster.value()->server(0).jobs_resumed();
  cluster.value()->stop();
  if (recovery) std::filesystem::remove_all(data_dir);
  return result;
}

// ---- Part 7: cross-server checkpoint replication vs journal restart (E4g) ----

struct ReplicationCaseResult {
  double completion_rate = 0;
  double makespan = 0;
  std::uint64_t recovered = 0;         // journal replays on the restarted owner
  std::uint64_t failover_resumes = 0;  // adoptions on the replica
  std::uint64_t frames = 0;            // replicated checkpoint frames
  std::uint64_t raw_bytes = 0;         // snapshot bytes before packing
  std::uint64_t wire_bytes = 0;        // frame bytes actually sent
};

// Two equal-speed servers; server 1 (the owner) takes every job — server 0
// advertises heavy background load so the predictor ranks it last, without
// actually being slower (adopted jobs run at full speed). The owner journals
// in both modes and is crash-killed once half the required Mflop is done.
//
//   replication off: the classic E4f path — the owner restarts on the same
//   data_dir after a dark window and the clients' reattach poll rides it out;
//   recovery cost = dark window + journal replay + post-checkpoint tail.
//
//   replication on: the owner also streams every checkpoint to server 0
//   (CHECKPOINT_PUT, delta/RLE frames) and is NEVER restarted — the crash is
//   permanent. Failover-enabled clients give up the reattach quickly, ask the
//   other ranked candidate to adopt (CHECKPOINT_FETCH), and server 0 resumes
//   each job from its last replicated snapshot; recovery cost = the short
//   reattach probe + the tail, no restart wait at all.
//
// The jobs are simstate (simwork plus a 16 KB solver-state vector that
// drifts a few entries per slice), so replicated snapshots have a realistic
// size and the raw-vs-wire byte counters measure a meaningful compression
// ratio rather than frame-header overhead.
ReplicationCaseResult run_replication_case(bool replication, std::int64_t work_units,
                                           int jobs) {
  constexpr double kDarkWindowS = 2.0;
  testkit::ClusterConfig config;
  config.servers = testkit::uniform_pool(2, /*workers=*/kConcurrency);
  for (auto& s : config.servers) s.slowdown_mode = server::SlowdownMode::kSleep;
  // Steer placement: server 0 predicts (and runs) ~10x slower under synthetic
  // background load, so the agent sends every fresh job to server 1. The load
  // is dropped at crash time — it exists to pin placement, and leaving it on
  // would measure the steering artifact instead of the replica's real speed.
  config.servers[0].background_load = 9.0;
  char data_dir[] = "/tmp/ns_bench_repl_XXXXXX";
  if (mkdtemp(data_dir) == nullptr) {
    std::fprintf(stderr, "mkdtemp failed\n");
    std::exit(1);
  }
  config.servers[1].data_dir = data_dir;
  config.servers[1].checkpoint_interval = 25;
  config.servers[1].journal_fsync = false;  // bench the protocol, not the disk
  if (replication) {
    config.servers[1].replicas = {0};
    config.servers[1].checkpoint_compress = true;
  }
  config.rating_base = 1000.0;
  // Keep the dead owner ranked so the off-mode retry walk keeps knocking
  // until the restart lands (the crash is the experiment, not a breaker test).
  config.registry.max_failures = 1 << 30;
  auto cluster = testkit::TestCluster::start(std::move(config));
  if (!cluster.ok()) {
    std::fprintf(stderr, "cluster failed: %s\n", cluster.error().to_string().c_str());
    std::exit(1);
  }

  client::ClientConfig cc;
  cc.agents = {cluster.value()->agent_endpoint()};
  cc.max_retries = 12;
  // Off: the reattach poll must ride out the dark window to the restart.
  // On: probe the corpse only briefly, then chase the replica.
  cc.reattach_s = replication ? 1.0 : 30.0;
  cc.checkpoint_failover = replication;
  client::NetSolveClient client(cc);

  const auto work_before = metrics::counter("server.work_mflop_total").value();
  const auto frames_before = metrics::counter("store.ckpt_replicated_total").value();
  const auto raw_before = metrics::counter("store.ckpt_raw_bytes_total").value();
  const auto wire_before = metrics::counter("store.ckpt_wire_bytes_total").value();
  const double required =
      static_cast<double>(work_units) * static_cast<double>(jobs);

  std::thread killer([&] {
    const Deadline guard(30.0);
    while (!guard.expired()) {
      const auto done = metrics::counter("server.work_mflop_total").value() - work_before;
      if (static_cast<double>(done) >= 0.5 * required) break;
      sleep_seconds(0.01);
    }
    cluster.value()->server(0).set_background_load(0.0);
    cluster.value()->crash_server(1);
    if (!replication) {
      sleep_seconds(kDarkWindowS);
      if (auto st = cluster.value()->restart_server(1); !st.ok()) {
        std::fprintf(stderr, "restart failed: %s\n", st.error().to_string().c_str());
      }
    }
  });

  auto farm = bench::run_farm(jobs, kConcurrency, [&](int) {
    return client
        .netsl("simstate", {DataObject(work_units), DataObject(std::int64_t{16})})
        .ok();
  });
  killer.join();

  ReplicationCaseResult result;
  result.completion_rate =
      static_cast<double>(jobs - farm.failures) / static_cast<double>(jobs);
  result.makespan = farm.makespan;
  result.recovered = cluster.value()->server(1).jobs_recovered();
  result.failover_resumes = cluster.value()->server(0).failover_resumes();
  result.frames = metrics::counter("store.ckpt_replicated_total").value() - frames_before;
  result.raw_bytes = metrics::counter("store.ckpt_raw_bytes_total").value() - raw_before;
  result.wire_bytes = metrics::counter("store.ckpt_wire_bytes_total").value() - wire_before;
  cluster.value()->stop();
  std::filesystem::remove_all(data_dir);
  return result;
}

// ---- E4h: memory pressure — byte-accounted admission + payload spill ----

struct MemPressureResult {
  double completion_rate = 0;
  double makespan = 0;
  std::uint64_t spilled_bytes = 0;
  std::uint64_t spill_reloads = 0;
  std::uint64_t shed = 0;
  std::uint64_t peak_bytes = 0;
  /// 1 when the accounted high-water mark stayed within the byte budget
  /// (trivially 1 for the ungoverned baseline).
  double peak_within_budget = 1.0;
};

// `jobs` large-payload ddot calls (two 2048-double vectors, ~32 KB of
// payload each) against one slow single-worker server, the combined offered
// payload ~3x the governed byte budget. Governed: admission charges every
// payload, queued-but-cold payloads spill to disk and reload at dispatch,
// and over-budget admissions shed retryably (the client's deadline budget
// absorbs them). Ungoverned: the same burst rides through admission
// unaccounted — the completion baseline the governor must match while
// bounding memory.
MemPressureResult run_mempressure_case(bool governed, int jobs) {
  constexpr std::uint64_t kMemBudget = 256 * 1024;
  char spill_dir[] = "/tmp/ns_bench_mem_XXXXXX";
  if (mkdtemp(spill_dir) == nullptr) {
    std::fprintf(stderr, "mkdtemp failed\n");
    std::exit(1);
  }
  testkit::ClusterConfig config;
  config.servers = testkit::uniform_pool(1, /*workers=*/1);
  auto& s = config.servers[0];
  s.slowdown_mode = server::SlowdownMode::kSleep;
  // ~40 ms of emulated time per job: payloads must sit queued (and cold)
  // long enough for the spill watermark to engage.
  s.speed = 1e-4;
  if (governed) {
    s.mem.global_bytes = kMemBudget;
    s.mem.spill_dir = spill_dir;
    s.mem.spill_min_bytes = 1024;
  }
  config.rating_base = 1000.0;
  config.client_deadline_s = 30.0;
  auto cluster = testkit::TestCluster::start(std::move(config));
  if (!cluster.ok()) {
    std::fprintf(stderr, "cluster failed: %s\n", cluster.error().to_string().c_str());
    std::exit(1);
  }

  const auto spilled_before = metrics::counter("mem.spilled_bytes_total").value();
  const auto reloads_before = metrics::counter("mem.spill_reloads_total").value();
  const auto shed_before = metrics::counter("mem.shed_total").value();

  constexpr std::size_t kVecDoubles = 2048;
  const linalg::Vector x(kVecDoubles, 1.0);
  const linalg::Vector y(kVecDoubles, 2.0);
  const double expected = 2.0 * static_cast<double>(kVecDoubles);
  auto client = cluster.value()->make_client();
  auto farm = bench::run_farm(jobs, kConcurrency, [&](int) {
    auto out = client.netsl("ddot", {DataObject(x), DataObject(y)});
    return out.ok() && out.value().size() == 1 &&
           out.value()[0].as_double() == expected;
  });

  MemPressureResult result;
  result.completion_rate =
      static_cast<double>(jobs - farm.failures) / static_cast<double>(jobs);
  result.makespan = farm.makespan;
  result.spilled_bytes = metrics::counter("mem.spilled_bytes_total").value() - spilled_before;
  result.spill_reloads = metrics::counter("mem.spill_reloads_total").value() - reloads_before;
  result.shed = metrics::counter("mem.shed_total").value() - shed_before;
  const auto& governor = cluster.value()->server(0).governor();
  result.peak_bytes = governor.peak();
  if (governed) {
    result.peak_within_budget = governor.peak() <= kMemBudget ? 1.0 : 0.0;
  }
  cluster.value()->stop();
  std::filesystem::remove_all(spill_dir);
  return result;
}

std::vector<ChaosCase> chaos_cases() {
  std::vector<ChaosCase> cases;
  cases.push_back({"reset", net::FaultPlan::single(net::FaultMode::kReset, 0.2, 0xbe5e7), false});
  cases.push_back({"stall", net::FaultPlan::single(net::FaultMode::kStall, 0.1, 0x57a11), false});
  cases.push_back(
      {"corrupt", net::FaultPlan::single(net::FaultMode::kCorrupt, 0.2, 0xc0554), false});
  cases.push_back({"crash-kill", net::FaultPlan{}, true, 40});
  net::FaultPlan mixed;
  mixed.seed = 0xc4a05;
  mixed.rules.push_back({net::FaultMode::kReset, 0.2, -1, {}});
  mixed.rules.push_back({net::FaultMode::kStall, 0.05, -1, {}});
  mixed.rules.push_back({net::FaultMode::kCorrupt, 0.2, -1, {}});
  cases.push_back({"mixed", mixed, false});
  return cases;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = ns::bench::Options::parse(argc, argv);
  if (opts.quick) g_jobs = 8;

  bench::banner("E4 / Table II", "fault tolerance: retry on/off vs failure probability");

  bench::row("%8s | %12s %10s | %12s %10s %12s", "p(fail)", "succ(no-rt)", "t(no-rt)",
             "succ(retry)", "t(retry)", "attempts");
  const std::vector<double> probs =
      opts.quick ? std::vector<double>{0.0, 0.3} : std::vector<double>{0.0, 0.1, 0.3, 0.5};
  for (const double p : probs) {
    const auto no_retry = run_case(p, /*retry=*/false);
    const auto with_retry = run_case(p, /*retry=*/true);
    bench::row("%8.2f | %11.0f%% %9.0fms | %11.0f%% %9.0fms %12.2f", p,
               100.0 * no_retry.success_rate, no_retry.mean_time * 1e3,
               100.0 * with_retry.success_rate, with_retry.mean_time * 1e3,
               with_retry.mean_attempts);
    // Case results become registry gauges so the JSON baseline is the same
    // registry dump METRICS_QUERY serves from a live process.
    const std::string base = "bench.fault.reply.p" + std::to_string(static_cast<int>(p * 100));
    metrics::gauge(base + ".no_retry_success").set(no_retry.success_rate);
    metrics::gauge(base + ".retry_success").set(with_retry.success_rate);
    metrics::gauge(base + ".retry_mean_attempts").set(with_retry.mean_attempts);
    metrics::gauge(base + ".retry_mean_s").set(with_retry.mean_time);
  }
  bench::row("");
  bench::row("shape check: no-retry success ~= 1-p; retry holds 100%% success with");
  bench::row("  mean attempts ~= 1/(1-p) and time growing accordingly");
  bench::row("");

  bench::banner("E4b", "chaos modes: injected network faults, budgeted retries, breaker");
  bench::row("%12s | %8s %10s %10s %10s %12s", "mode", "success", "attempts", "mean",
             "p95", "makespan");

  for (const auto& c : chaos_cases()) {
    // Quick mode keeps one injector case and the crash-kill case (the two
    // recovery paths worth smoking in CI); the full matrix runs otherwise.
    if (opts.quick && std::string(c.name) != "reset" && !c.crash_kill) continue;
    const auto r = run_chaos_case(c);
    bench::row("%12s | %7.0f%% %10.2f %8.0fms %8.0fms %10.0fms", c.name,
               100.0 * r.success_rate, r.mean_attempts, r.mean_time * 1e3, r.p95_time * 1e3,
               r.makespan * 1e3);
    const std::string base = std::string("bench.fault.chaos.") + c.name;
    metrics::gauge(base + ".success_rate").set(r.success_rate);
    metrics::gauge(base + ".mean_attempts").set(r.mean_attempts);
    metrics::gauge(base + ".mean_s").set(r.mean_time);
    metrics::gauge(base + ".p95_s").set(r.p95_time);
    metrics::gauge(base + ".makespan_s").set(r.makespan);
  }
  bench::row("");
  bench::row("chaos modes run with a %.0fs per-call deadline budget; the expected", kDeadlineS);
  bench::row("  shape is 100%% success in every mode with attempts > 1 absorbing the faults");

  bench::banner("E4c", "agent high availability: primary agent crash-killed mid-run");
  {
    const auto r = run_ha_case();
    bench::row("%12s | %7.0f%% %8.0fms %8.0fms %10.0fms %6llu failovers %4llu degraded",
               "agent-kill", 100.0 * r.success_rate, r.mean_time * 1e3, r.p95_time * 1e3,
               r.makespan * 1e3, static_cast<unsigned long long>(r.failovers),
               static_cast<unsigned long long>(r.degraded_calls));
    metrics::gauge("bench.fault.ha.success_rate").set(r.success_rate);
    metrics::gauge("bench.fault.ha.mean_s").set(r.mean_time);
    metrics::gauge("bench.fault.ha.p95_s").set(r.p95_time);
    metrics::gauge("bench.fault.ha.makespan_s").set(r.makespan);
    metrics::gauge("bench.fault.ha.failovers").set(static_cast<double>(r.failovers));
    metrics::gauge("bench.fault.ha.degraded_calls").set(static_cast<double>(r.degraded_calls));
  }
  bench::row("");
  bench::row("expected shape: 100%% success with at least one agent failover; the agent");
  bench::row("  death costs one connect timeout, not any jobs");

  bench::banner("E4d", "hedged requests vs 10% stall-injected stragglers");
  bench::row("%12s | %8s %8s %8s %8s %10s", "hedging", "success", "mean", "p95", "p99",
             "makespan");
  HedgeResult hedge_results[2];
  for (const bool hedged : {false, true}) {
    const auto r = run_hedge_case(hedged);
    hedge_results[hedged ? 1 : 0] = r;
    bench::row("%12s | %7.0f%% %6.0fms %6.0fms %6.0fms %8.0fms", hedged ? "on" : "off",
               100.0 * r.success_rate, r.mean_time * 1e3, r.p95_time * 1e3,
               r.p99_time * 1e3, r.makespan * 1e3);
    const std::string base = std::string("bench.fault.e4d.") + (hedged ? "on" : "off");
    metrics::gauge(base + ".success_rate").set(r.success_rate);
    metrics::gauge(base + ".mean_s").set(r.mean_time);
    metrics::gauge(base + ".p95_s").set(r.p95_time);
    metrics::gauge(base + ".p99_s").set(r.p99_time);
    metrics::gauge(base + ".makespan_s").set(r.makespan);
  }
  {
    const auto& on = hedge_results[1];
    metrics::gauge("bench.fault.e4d.on.hedges").set(static_cast<double>(on.hedges));
    metrics::gauge("bench.fault.e4d.on.hedge_wins").set(static_cast<double>(on.hedge_wins));
    metrics::gauge("bench.fault.e4d.on.cancels_sent")
        .set(static_cast<double>(on.cancels_sent));
    metrics::gauge("bench.fault.e4d.on.server_cancelled")
        .set(static_cast<double>(on.server_cancelled));
    metrics::gauge("bench.fault.e4d.on.server_shed")
        .set(static_cast<double>(on.server_shed));
    const double cut = on.p99_time > 0 ? hedge_results[0].p99_time / on.p99_time : 0.0;
    metrics::gauge("bench.fault.e4d.p99_cut").set(cut);
    bench::row("");
    bench::row("hedging cut p99 %.1fx; %llu hedges launched, %llu won, losers reaped:",
               cut, static_cast<unsigned long long>(on.hedges),
               static_cast<unsigned long long>(on.hedge_wins));
    bench::row("  %llu cancels sent, servers observed %llu cancelled + %llu shed",
               static_cast<unsigned long long>(on.cancels_sent),
               static_cast<unsigned long long>(on.server_cancelled),
               static_cast<unsigned long long>(on.server_shed));
    bench::row("expected shape: 100%% success both ways; hedging cuts p99 >= 2x by racing");
    bench::row("  a backup after the observed-p95 delay instead of waiting out the stall");
  }

  bench::banner("E4e", "adaptive overload control on/off at 3x offered load");
  bench::row("%12s | %10s %10s %9s %8s | %6s %6s %6s", "control", "capacity", "goodput",
             "success", "sojp95", "adm", "deq", "codel");
  const double overload_window_s = opts.quick ? 1.5 : 3.0;
  OverloadResult overload_results[2];
  for (const bool controlled : {false, true}) {
    const auto r = run_overload_case(controlled, overload_window_s);
    overload_results[controlled ? 1 : 0] = r;
    bench::row("%12s | %8.1f/s %8.1f/s %3d/%-5d %6.0fms | %6llu %6llu %6llu",
               controlled ? "on" : "off", r.capacity, r.goodput, r.successes, r.offered,
               r.sojourn_p95 * 1e3, static_cast<unsigned long long>(r.shed_admission),
               static_cast<unsigned long long>(r.shed_dequeue),
               static_cast<unsigned long long>(r.shed_codel));
    const std::string base = std::string("bench.fault.e4e.") + (controlled ? "on" : "off");
    metrics::gauge(base + ".capacity_per_s").set(r.capacity);
    metrics::gauge(base + ".goodput_per_s").set(r.goodput);
    metrics::gauge(base + ".success_rate")
        .set(r.offered > 0 ? static_cast<double>(r.successes) / r.offered : 0.0);
    metrics::gauge(base + ".sojourn_p95_s").set(r.sojourn_p95);
    metrics::gauge(base + ".shed_admission").set(static_cast<double>(r.shed_admission));
    metrics::gauge(base + ".shed_dequeue").set(static_cast<double>(r.shed_dequeue));
    metrics::gauge(base + ".shed_codel").set(static_cast<double>(r.shed_codel));
  }
  {
    const auto& off = overload_results[0];
    const auto& on = overload_results[1];
    const double ratio = off.goodput > 0 ? on.goodput / off.goodput
                                         : (on.goodput > 0 ? 999.0 : 0.0);
    metrics::gauge("bench.fault.e4e.goodput_ratio").set(ratio);
    metrics::gauge("bench.fault.e4e.codel_target_s").set(kCodelTargetS);
    metrics::gauge("bench.fault.e4e.deadline_s").set(kOverloadDeadlineS);
    bench::row("");
    bench::row("overload control lifted goodput %.1fx at 3x load; controlled sojourn p95", ratio);
    bench::row("  %.0fms vs CoDel target %.0fms (acceptance band: target +-50%%)",
               on.sojourn_p95 * 1e3, kCodelTargetS * 1e3);
    bench::row("expected shape: goodput ratio >= 2x (the uncontrolled queue computes ghost");
    bench::row("  work for callers who already gave up); sojourn p95 within the CoDel band");
  }

  bench::banner("E4f", "durable long jobs: crash-kill at 50% done, journal recovery on/off");
  bench::row("%12s | %10s %10s %10s %10s %8s", "durability", "complete", "wasted",
             "makespan", "recovered", "resumed");
  const std::int64_t durable_work = opts.quick ? 400 : 800;
  const int durable_jobs = kConcurrency;
  DurableCaseResult durable_results[2];
  for (const bool recovery : {false, true}) {
    const auto r = run_durable_case(recovery, durable_work, durable_jobs);
    durable_results[recovery ? 1 : 0] = r;
    bench::row("%12s | %9.0f%% %9.0f%% %8.0fms %10llu %8llu", recovery ? "on" : "off",
               100.0 * r.completion_rate, 100.0 * r.wasted_ratio, r.makespan * 1e3,
               static_cast<unsigned long long>(r.recovered),
               static_cast<unsigned long long>(r.resumed));
    const std::string base = std::string("bench.fault.e4f.") + (recovery ? "on" : "off");
    metrics::gauge(base + ".completion_rate").set(r.completion_rate);
    metrics::gauge(base + ".wasted_ratio").set(r.wasted_ratio);
    metrics::gauge(base + ".makespan_s").set(r.makespan);
    metrics::gauge(base + ".recovered").set(static_cast<double>(r.recovered));
    metrics::gauge(base + ".resumed").set(static_cast<double>(r.resumed));
  }
  metrics::gauge("bench.fault.e4f.work_mflop").set(static_cast<double>(durable_work));
  metrics::gauge("bench.fault.e4f.jobs").set(durable_jobs);
  bench::row("");
  bench::row("expected shape: both modes complete 100%% (retries resubmit when the journal");
  bench::row("  is off), but recovery-off recomputes the whole pre-crash half (wasted ~50%%)");
  bench::row("  while recovery-on loses only the post-checkpoint tail (wasted ~<5%%)");

  bench::banner("E4g", "checkpoint replication: owner crash-killed, replica failover vs restart");
  bench::row("%12s | %9s %10s %8s %9s %7s", "replication", "complete", "makespan",
             "journal", "failover", "frames");
  const std::int64_t repl_work = opts.quick ? 400 : 800;
  const int repl_jobs = kConcurrency;
  ReplicationCaseResult repl_results[2];
  for (const bool replication : {false, true}) {
    const auto r = run_replication_case(replication, repl_work, repl_jobs);
    repl_results[replication ? 1 : 0] = r;
    bench::row("%12s | %8.0f%% %8.0fms %8llu %9llu %7llu", replication ? "on" : "off",
               100.0 * r.completion_rate, r.makespan * 1e3,
               static_cast<unsigned long long>(r.recovered),
               static_cast<unsigned long long>(r.failover_resumes),
               static_cast<unsigned long long>(r.frames));
    const std::string base = std::string("bench.fault.e4g.") + (replication ? "on" : "off");
    metrics::gauge(base + ".completion_rate").set(r.completion_rate);
    metrics::gauge(base + ".makespan_s").set(r.makespan);
    metrics::gauge(base + ".recovered").set(static_cast<double>(r.recovered));
    metrics::gauge(base + ".failover_resumes").set(static_cast<double>(r.failover_resumes));
  }
  {
    const auto& on = repl_results[1];
    const double ratio = on.wire_bytes > 0
                             ? static_cast<double>(on.raw_bytes) /
                                   static_cast<double>(on.wire_bytes)
                             : 0.0;
    metrics::gauge("bench.fault.e4g.ckpt_frames").set(static_cast<double>(on.frames));
    metrics::gauge("bench.fault.e4g.ckpt_raw_bytes").set(static_cast<double>(on.raw_bytes));
    metrics::gauge("bench.fault.e4g.ckpt_wire_bytes").set(static_cast<double>(on.wire_bytes));
    metrics::gauge("bench.fault.e4g.ckpt_compression_ratio").set(ratio);
    bench::row("");
    bench::row("replicated %llu frames: %.1f KB raw snapshots -> %.1f KB on the wire"
               " (%.1fx)",
               static_cast<unsigned long long>(on.frames), on.raw_bytes / 1024.0,
               on.wire_bytes / 1024.0, ratio);
    bench::row("expected shape: both modes complete 100%%; replication-off pays the");
    bench::row("  restart dark window while replication-on rides the replica with no");
    bench::row("  restart at all; delta/RLE frames cut wire bytes >= 3x vs raw");
  }
  metrics::gauge("bench.fault.e4g.work_mflop").set(static_cast<double>(repl_work));
  metrics::gauge("bench.fault.e4g.jobs").set(repl_jobs);

  bench::banner("E4h", "memory pressure: byte-accounted admission + spill at 3x oversubscription");
  bench::row("%12s | %9s %10s %10s %8s %6s %8s", "governed", "complete", "makespan",
             "spilled", "reloads", "shed", "peak<=B");
  const int mem_jobs = opts.quick ? 12 : 24;
  for (const bool governed : {false, true}) {
    const auto r = run_mempressure_case(governed, mem_jobs);
    bench::row("%12s | %8.0f%% %8.0fms %8.0fKB %8llu %6llu %8s",
               governed ? "on" : "off", 100.0 * r.completion_rate, r.makespan * 1e3,
               static_cast<double>(r.spilled_bytes) / 1024.0,
               static_cast<unsigned long long>(r.spill_reloads),
               static_cast<unsigned long long>(r.shed),
               r.peak_within_budget >= 1.0 ? "yes" : "NO");
    const std::string base = std::string("bench.fault.e4h.") + (governed ? "on" : "off");
    metrics::gauge(base + ".completion_rate").set(r.completion_rate);
    metrics::gauge(base + ".makespan_s").set(r.makespan);
    metrics::gauge(base + ".spilled_bytes").set(static_cast<double>(r.spilled_bytes));
    metrics::gauge(base + ".spill_reloads").set(static_cast<double>(r.spill_reloads));
    metrics::gauge(base + ".shed").set(static_cast<double>(r.shed));
    metrics::gauge(base + ".peak_bytes").set(static_cast<double>(r.peak_bytes));
    metrics::gauge(base + ".peak_within_budget").set(r.peak_within_budget);
  }
  metrics::gauge("bench.fault.e4h.budget_bytes").set(256.0 * 1024.0);
  metrics::gauge("bench.fault.e4h.jobs").set(mem_jobs);
  bench::row("");
  bench::row("expected shape: governed completion matches the ungoverned baseline while");
  bench::row("  the accounted high-water mark stays within the 256 KB budget; spill absorbs");
  bench::row("  the queued payloads (spilled > 0, reloads > 0) and the remainder sheds");
  bench::row("  retryably instead of growing the heap");

  metrics::gauge("bench.fault.jobs").set(g_jobs);
  metrics::gauge("bench.fault.concurrency").set(kConcurrency);
  metrics::gauge("bench.fault.deadline_s").set(kDeadlineS);

  // Machine-readable baseline for regression diffing (see EXPERIMENTS.md):
  // the full registry dump — bench.fault.* result gauges plus the client/
  // agent/server counters and span.* histograms the farm accumulated.
  const std::string json_path = opts.json_path.empty() ? "BENCH_fault.json" : opts.json_path;
  if (bench::write_metrics_json(json_path, "bench_fault", opts.quick)) {
    bench::row("");
    bench::row("baseline written to %s", json_path.c_str());
  }
  return 0;
}
