// Seeded input decks for the benchmark workloads.
//
// A deck is the list of calls one workload cycles through. Its composition
// (which problem at which size, how many of each) is fixed per workload, so
// runs with different seeds measure the same mix; the seed picks the operand
// values. Every item carries what is needed to check the server's answer,
// computed before any timing starts:
//   ddot, dgemv    exact expected values (integer-valued operands, so every
//                  summation order gives the same double)
//   daxpy          exact elementwise y + alpha x (dyadic alpha, integer x, y)
//   tridiag        residual bound on the returned solution
//   dgesv, dposv   residual bound on the returned solution
//   dgemm          Freivalds check: C r against the precomputed A (B r)
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dsl/value.hpp"
#include "testkit/cluster.hpp"

namespace perfbench {

struct Item {
  std::string problem;
  std::string label;  // problem/size, e.g. "dgesv/256" or "ddot/16MiB"
  std::vector<ns::dsl::DataObject> args;
  double flops = 0.0;             // textbook flop count of the problem
  std::uint64_t input_bytes = 0;  // dsl::args_byte_size(args)
  double expect_scalar = 0.0;     // ddot
  ns::linalg::Vector expect;      // dgemv: y; dgemm: A (B r)
  ns::linalg::Vector probe;       // dgemm: the Freivalds vector r
};

struct Workload {
  std::string name;
  int callers = 4;
  std::vector<ns::testkit::ClusterServerSpec> servers;
  std::vector<Item> deck;
};

/// The names make_workload accepts.
const std::vector<std::string>& workload_names();

/// Build the named workload's cluster shape and its seeded deck. Throws
/// std::invalid_argument for an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed);

/// Check one call's outputs against the item's expectation. Returns an empty
/// string when they are right, else what is wrong.
std::string verify(const Item& item, const std::vector<ns::dsl::DataObject>& outputs);

}  // namespace perfbench
