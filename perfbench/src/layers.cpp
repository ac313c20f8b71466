#include "layers.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>

#include "dsl/registry.hpp"
#include "proto/messages.hpp"
#include "serial/crc32.hpp"
#include "serial/frame.hpp"
#include "server/builtin_problems.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

namespace {

enum Op {
  kExecute,
  kRequestEncode,
  kRequestDecode,
  kResultEncode,
  kResultDecode,
  kCrc32,
  kBuildFrame,
  kCheckPayload,
  kNumOps
};

constexpr const char* kOpSpan[kNumOps] = {
    "micro.linalg.execute",      "micro.proto.request_encode", "micro.proto.request_decode",
    "micro.proto.result_encode", "micro.proto.result_decode",  "micro.serial.crc32",
    "micro.serial.build_frame",  "micro.serial.check_payload",
};

// Enough passes for stable medians; more only grows the span log.
constexpr int kMaxPasses = 50;

// The optimizer must not drop a timed call whose result is otherwise unused.
volatile std::uint32_t g_sink = 0;

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Times one item's layers; per-op seconds accumulate in `seconds` (request and
/// result directions summed for the serial ops).
class ItemTimer {
 public:
  ItemTimer(SpanLog& log, std::uint64_t call, Clock::time_point base)
      : log_(log), call_(call), base_(base) {}

  template <typename F>
  auto time(Op op, F&& f) {
    const auto s = Clock::now();
    auto r = f();
    const auto e = Clock::now();
    seconds[op] += std::chrono::duration<double>(e - s).count();
    log_.add(call_, kOpSpan[op], -1, std::chrono::duration<double>(s - base_).count(),
             std::chrono::duration<double>(e - base_).count());
    return r;
  }

  /// CRC, frame build and payload check of one direction's payload.
  std::string frame_ops(std::uint16_t type, const ns::serial::Bytes& payload) {
    g_sink = time(kCrc32, [&] { return ns::serial::crc32(payload.data(), payload.size()); });
    const auto frame = time(kBuildFrame, [&] { return ns::serial::build_frame(type, payload); });
    auto header = ns::serial::decode_header(frame.data());
    if (!header.ok()) return "decode_header: " + header.error().to_string();
    const auto st = time(kCheckPayload,
                         [&] { return ns::serial::check_payload(header.value(), payload); });
    return st.ok() ? std::string{} : "check_payload: " + st.error().to_string();
  }

  double seconds[kNumOps] = {};

 private:
  SpanLog& log_;
  std::uint64_t call_;
  Clock::time_point base_;
};

ns::serial::Bytes encode(const auto& msg) {
  ns::serial::Encoder enc;
  msg.encode(enc);
  return enc.take();
}

}  // namespace

std::string time_layers(const Workload& workload, double budget_s, int min_passes,
                        LayerCosts& out, SpanLog& log) {
  ns::dsl::ProblemRegistry registry;
  // The rating only calibrates the synthetic busywork problem, unused here.
  ns::server::register_builtin_problems(registry, /*native_mflops=*/1000.0);
  const auto request_type = static_cast<std::uint16_t>(ns::proto::MessageType::kSolveRequest);
  const auto result_type = static_cast<std::uint16_t>(ns::proto::MessageType::kSolveResult);

  // One representative item per class (same label), weighted by how many
  // deck items the class has: items of a class differ only in values.
  std::vector<std::size_t> reps;
  std::vector<double> weight;
  std::map<std::string, std::size_t> class_of;
  for (std::size_t k = 0; k < workload.deck.size(); ++k) {
    const auto [it, fresh] = class_of.emplace(workload.deck[k].label, reps.size());
    if (fresh) {
      reps.push_back(k);
      weight.push_back(0.0);
    }
    weight[it->second] += 1.0 / static_cast<double>(workload.deck.size());
  }
  const std::size_t n = reps.size();
  // samples[class][op] = seconds of each pass
  std::vector<std::vector<std::vector<double>>> samples(
      n, std::vector<std::vector<double>>(kNumOps));
  std::vector<double> request_bytes(n), result_bytes(n);

  const auto base = Clock::now();
  const auto budget_end =
      base + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(budget_s));
  int passes = 0;
  while (passes < min_passes || (passes < kMaxPasses && Clock::now() < budget_end)) {
    for (std::size_t i = 0; i < n; ++i) {
      const Item& item = workload.deck[reps[i]];
      ItemTimer timer(log, reps[i], base);

      auto outputs =
          timer.time(kExecute, [&] { return registry.execute(item.problem, item.args); });
      if (!outputs.ok()) return item.label + " execute: " + outputs.error().to_string();
      const std::string wrong = verify(item, outputs.value());
      if (!wrong.empty()) return item.label + " execute: " + wrong;

      ns::proto::SolveRequest request;
      request.request_id = i + 1;
      request.problem = item.problem;
      request.args = item.args;
      const auto req_payload = timer.time(kRequestEncode, [&] { return encode(request); });
      const auto req_back = timer.time(kRequestDecode, [&] {
        ns::serial::Decoder dec(req_payload);
        return ns::proto::SolveRequest::decode(dec);
      });
      if (!req_back.ok()) return item.label + " request decode: " + req_back.error().to_string();

      ns::proto::SolveResult result;
      result.request_id = i + 1;
      result.outputs = std::move(outputs).value();
      const auto res_payload = timer.time(kResultEncode, [&] { return encode(result); });
      const auto res_back = timer.time(kResultDecode, [&] {
        ns::serial::Decoder dec(res_payload);
        return ns::proto::SolveResult::decode(dec);
      });
      if (!res_back.ok()) return item.label + " result decode: " + res_back.error().to_string();
      if (!(res_back.value().outputs == result.outputs)) {
        return item.label + " result does not round-trip";
      }

      std::string bad = timer.frame_ops(request_type, req_payload);
      if (bad.empty()) bad = timer.frame_ops(result_type, res_payload);
      if (!bad.empty()) return item.label + " " + bad;

      for (int op = 0; op < kNumOps; ++op) samples[i][op].push_back(timer.seconds[op]);
      request_bytes[i] = static_cast<double>(req_payload.size());
      result_bytes[i] = static_cast<double>(res_payload.size());
    }
    ++passes;
  }

  double per_op_us[kNumOps] = {};
  double flops = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (int op = 0; op < kNumOps; ++op) per_op_us[op] += median(samples[i][op]) * 1e6 * weight[i];
    flops += workload.deck[reps[i]].flops * weight[i];
    out.request_bytes += request_bytes[i] * weight[i];
    out.result_bytes += result_bytes[i] * weight[i];
  }
  out.execute_us = per_op_us[kExecute];
  out.request_encode_us = per_op_us[kRequestEncode];
  out.request_decode_us = per_op_us[kRequestDecode];
  out.result_encode_us = per_op_us[kResultEncode];
  out.result_decode_us = per_op_us[kResultDecode];
  out.crc32_us = per_op_us[kCrc32];
  out.build_frame_us = per_op_us[kBuildFrame];
  out.check_payload_us = per_op_us[kCheckPayload];
  out.mflops = flops / out.execute_us;  // flop per µs = Mflop/s
  out.passes = passes;
  return {};
}

double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

namespace {

template <typename F>
std::vector<double> probe(double budget_s, std::size_t max_samples, F&& once) {
  std::vector<double> us;
  const auto end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(budget_s));
  while (us.size() < max_samples && Clock::now() < end) {
    const auto s = Clock::now();
    if (!once()) break;
    us.push_back(std::chrono::duration<double, std::micro>(Clock::now() - s).count());
  }
  std::sort(us.begin(), us.end());
  return us;
}

}  // namespace

std::vector<double> probe_ping(ns::client::NetSolveClient& client, double budget_s,
                               std::size_t max_samples) {
  return probe(budget_s, max_samples, [&] { return client.ping_agent().ok(); });
}

std::vector<double> probe_query(ns::client::NetSolveClient& client, const Workload& workload,
                                double budget_s, std::size_t max_samples) {
  std::size_t i = 0;
  return probe(budget_s, max_samples, [&] {
    const Item& item = workload.deck[i++ % workload.deck.size()];
    auto list = client.query(item.problem, item.args);
    return list.ok() && !list.value().candidates.empty();
  });
}

}  // namespace perfbench
