#include "runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <stdexcept>
#include <thread>

#include "common/clock.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

namespace {

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

constexpr std::size_t kMaxErrors = 8;

/// Fill the record's timing fields from the call's own telemetry.
void read_stats(const ns::client::CallStats& st, CallRecord& rec) {
  rec.predicted_s = st.predicted_seconds;
  rec.exec_s = st.exec_seconds;
  rec.attempts = st.attempts;
  rec.payload_bytes = st.input_bytes + st.output_bytes;
  for (const auto& span : st.spans) {
    if (span.name == "client.query") {
      rec.query_s += span.duration_s;
    } else if (span.name == "agent.schedule") {
      rec.schedule_s += span.duration_s;
    } else if (span.name == "client.attempt") {
      rec.attempt_s += span.duration_s;
    } else if (span.name == "server.queue_wait") {
      rec.queue_s += span.duration_s;
    } else if (span.name == "server.compute") {
      ++rec.server_spans;
    } else if (span.name == "client.result_transfer") {
      rec.result_transfer_s += span.duration_s;
    }
  }
}

std::uint64_t counter_value(const ns::metrics::Snapshot& snap, const std::string& name) {
  const auto* entry = snap.find(name);
  return entry != nullptr ? entry->count : 0;
}

}  // namespace

CounterDelta counter_delta(const ns::metrics::Snapshot& before,
                           const ns::metrics::Snapshot& after) {
  const auto delta = [&](const std::string& name) {
    return counter_value(after, name) - counter_value(before, name);
  };
  CounterDelta d;
  d.pool_hits = delta("net.pool.hits_total");
  d.pool_misses = delta("net.pool.misses_total");
  for (const char* name : {"server.shed_total", "server.rejected_total", "mem.shed_total",
                           "server.drain_rejected_total", "store.degraded_shed_total"}) {
    d.shed += delta(name);
  }
  d.registry_compute_spans = delta("span.server.compute_s");
  return d;
}

LoadRunner::LoadRunner(const Workload& workload, std::uint64_t seed)
    : workload_(workload), seed_(seed) {
  std::map<std::string, std::vector<std::uint32_t>> by_label;
  for (std::uint32_t k = 0; k < workload_.deck.size(); ++k) {
    by_label[workload_.deck[k].label].push_back(k);
  }
  for (auto& [label, members] : by_label) classes_.push_back(std::move(members));
}

LoadRunner::~LoadRunner() { teardown(); }

void LoadRunner::teardown() {
  clients_.clear();
  if (cluster_) {
    cluster_->stop();
    cluster_.reset();
  }
}

double LoadRunner::setup() {
  teardown();
  const ns::Stopwatch watch;
  ns::testkit::ClusterConfig config;
  config.servers = workload_.servers;
  auto cluster = ns::testkit::TestCluster::start(std::move(config));
  if (!cluster.ok()) {
    throw std::runtime_error("cluster start failed: " + cluster.error().to_string());
  }
  cluster_ = std::move(cluster).value();

  const auto callers = static_cast<std::size_t>(workload_.callers);
  walks_.clear();
  for (std::size_t i = 0; i < callers; ++i) {
    ns::client::ClientConfig cc;
    cc.agents = {cluster_->agent_endpoint()};
    clients_.push_back(std::make_unique<ns::client::NetSolveClient>(std::move(cc)));
    walks_.push_back(Walk{ns::Rng(seed_ * 0x9e3779b97f4a7c15ULL + i + 1), {}, 0});
  }

  // Each caller's first call, concurrently: lazy pool dials count as set-up.
  // Every caller sends the deck's smallest item, so the set-up time does not
  // depend on which items the seed happens to put first.
  const Item& first = *std::min_element(
      workload_.deck.begin(), workload_.deck.end(),
      [](const Item& a, const Item& b) { return a.input_bytes < b.input_bytes; });
  std::vector<std::string> first_errors(callers);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < callers; ++i) {
    threads.emplace_back([this, i, &first, &first_errors] {
      const Item& item = first;
      auto out = clients_[i]->netsl(item.problem, item.args);
      first_errors[i] = out.ok() ? verify(item, out.value()) : out.error().to_string();
      if (!first_errors[i].empty()) first_errors[i] = item.label + ": " + first_errors[i];
    });
  }
  for (auto& t : threads) t.join();
  const double elapsed = watch.elapsed();
  for (auto& e : first_errors) {
    if (!e.empty() && errors_.size() < kMaxErrors) errors_.push_back("setup " + e);
  }
  return elapsed;
}

std::uint32_t LoadRunner::next_item(std::size_t i) {
  Walk& w = walks_[i];
  if (w.pos == w.order.size()) {
    // The j-th of a class's n members (in shuffled order) lands at a random
    // point of the j-th n-th of the cycle.
    std::vector<std::pair<double, std::uint32_t>> keyed;
    for (auto members : classes_) {
      for (std::size_t k = members.size(); k > 1; --k) {
        std::swap(members[k - 1],
                  members[static_cast<std::size_t>(
                      w.rng.uniform_int(0, static_cast<std::int64_t>(k) - 1))]);
      }
      for (std::size_t j = 0; j < members.size(); ++j) {
        keyed.emplace_back((static_cast<double>(j) + w.rng.next_double()) / members.size(),
                           members[j]);
      }
    }
    std::sort(keyed.begin(), keyed.end());
    w.order.clear();
    for (const auto& [key, index] : keyed) w.order.push_back(index);
    w.pos = 0;
  }
  return w.order[w.pos++];
}

Phase LoadRunner::run(double seconds, bool traced) {
  struct PerCaller {
    std::vector<CallRecord> calls;
    SpanLog spans;
    std::vector<std::string> errors;
    Clock::time_point last_return;
  };
  const std::size_t callers = clients_.size();
  std::vector<PerCaller> per(callers);
  std::atomic<std::uint64_t> next_call{next_call_};

  const auto t0 = Clock::now();
  const auto end = t0 + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < callers; ++i) {
    threads.emplace_back([&, i] {
      PerCaller& me = per[i];
      auto& client = *clients_[i];
      me.last_return = t0;
      while (Clock::now() < end) {
        const std::uint32_t index = next_item(i);
        const Item& item = workload_.deck[index];
        ns::client::CallStats st;
        const auto s = Clock::now();
        auto out = client.netsl(item.problem, item.args, &st);
        const auto e = Clock::now();
        me.last_return = e;

        CallRecord rec;
        rec.item = index;
        rec.end_s = seconds_between(t0, e);
        rec.latency_s = seconds_between(s, e);
        read_stats(st, rec);
        std::string why;
        if (out.ok()) {
          rec.returned = true;
          why = verify(item, out.value());
          rec.verified = why.empty();
        } else {
          why = out.error().to_string();
        }
        if (!why.empty() && me.errors.size() < kMaxErrors) {
          me.errors.push_back(item.label + ": " + why);
        }
        if (traced) {
          me.spans.add_call(next_call.fetch_add(1), "netsl", seconds_between(t0, s),
                            seconds_between(t0, e), st.spans);
        }
        me.calls.push_back(rec);
      }
    });
  }
  for (auto& t : threads) t.join();
  next_call_ = next_call.load();

  Phase phase;
  auto last = t0;
  for (auto& me : per) {
    phase.calls.insert(phase.calls.end(), me.calls.begin(), me.calls.end());
    phase.spans.append(me.spans);
    for (auto& e : me.errors) {
      if (phase.errors.size() < kMaxErrors) phase.errors.push_back(std::move(e));
    }
    last = std::max(last, me.last_return);
  }
  phase.wall_s = seconds_between(t0, last);
  return phase;
}

ns::metrics::Snapshot LoadRunner::scrape() const {
  auto snap = ns::client::scrape_metrics(cluster_->agent_endpoint());
  if (!snap.ok()) throw std::runtime_error("metrics scrape failed: " + snap.error().to_string());
  return std::move(snap).value();
}

}  // namespace perfbench
