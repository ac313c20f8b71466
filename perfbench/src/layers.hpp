// Per-layer timings measured from outside, through each layer's public
// functions, on the workload's own inputs and outputs.
#pragma once

#include <string>
#include <vector>

#include "client/client.hpp"
#include "deck.hpp"
#include "spans.hpp"

namespace perfbench {

/// Per-call costs of the serial, proto and linalg layers, single-threaded.
/// Each is the mean over the deck (the workload's mix) of the per-class
/// median over repeated passes; "per call" sums both directions where the
/// call does the work twice (request and result).
struct LayerCosts {
  double crc32_us = 0.0;          // serial::crc32 over request + result payload
  double build_frame_us = 0.0;    // serial::build_frame, request + result
  double check_payload_us = 0.0;  // serial::check_payload, request + result
  double request_encode_us = 0.0;
  double request_decode_us = 0.0;
  double result_encode_us = 0.0;
  double result_decode_us = 0.0;
  double request_bytes = 0.0;  // encoded SolveRequest payload
  double result_bytes = 0.0;   // encoded SolveResult payload
  double execute_us = 0.0;     // dsl::ProblemRegistry::execute
  double mflops = 0.0;         // deck flops / deck execute time
  int passes = 0;
};

/// Time every layer on one item of each deck class for at least `min_passes`
/// passes and until `budget_s` has elapsed. Each timed call is also recorded
/// in `log` as a root span named "micro.<layer>.<op>", call id = deck index.
/// Fails (empty string = ok) if a layer rejects the workload's own data.
std::string time_layers(const Workload& workload, double budget_s, int min_passes,
                        LayerCosts& out, SpanLog& log);

/// Back-to-back NetSolveClient::ping_agent (the smallest frame) round trips;
/// returns the sorted round-trip times in µs.
std::vector<double> probe_ping(ns::client::NetSolveClient& client, double budget_s,
                               std::size_t max_samples);

/// Back-to-back NetSolveClient::query round trips over the deck's items;
/// returns the sorted round-trip times in µs.
std::vector<double> probe_query(ns::client::NetSolveClient& client, const Workload& workload,
                                double budget_s, std::size_t max_samples);

/// Nearest-rank percentile of sorted samples (q in (0, 1]).
double percentile(const std::vector<double>& sorted, double q);

}  // namespace perfbench
