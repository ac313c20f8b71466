// E1 (Figure A): effective bandwidth of argument transfer vs data size.
//
// A transfer-dominated problem (ddot over two N-double vectors) is called
// through the full NetSolve path — marshal, agent query, shaped send,
// execute, reply — for sizes 2^10 .. 2^20 doubles over three emulated links
// (loopback/unshaped, LAN ~100 Mb/s + 0.5 ms, WAN ~10 Mb/s + 20 ms).
//
// Reported: effective bandwidth = payload bytes / median call time. Expected
// shape: rises with size toward each link's configured ceiling; small calls
// are latency/overhead bound (the original paper's argument for using
// NetSolve on large problems).
//
// Each row also lands in a bench.transfer.<link>.<doubles>.MBps gauge, which
// --json dumps for the bench-gate CI lane. --quick caps the shaped links at
// the sizes that already reach their ceiling (2^18 doubles on the LAN, 2^16
// on the WAN), so the run fits a CI budget.
//
// bench.transfer.crc32.GBps is the frame CRC's own rate on a warmed 16 MiB
// buffer. Every payload byte is checksummed on send and again on receive,
// and the gate's floor on this gauge catches a fall back to the portable
// path, which runs at about a tenth of the folded one.
#include "bench/harness.hpp"
#include "linalg/matrix.hpp"
#include "serial/crc32.hpp"

using namespace ns;
using dsl::DataObject;

namespace {

struct LinkCase {
  const char* name;
  net::LinkShape shape;
  std::size_t quick_max_log2n;
};

double median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  const std::size_t mid = xs.size() / 2;
  return xs.size() % 2 == 1 ? xs[mid] : (xs[mid - 1] + xs[mid]) / 2.0;
}

/// Median rate in GB/s of crc32() over one warmed 16 MiB buffer.
double crc32_gbps() {
  serial::Bytes buf(std::size_t{16} << 20);
  for (std::size_t i = 0; i < buf.size(); ++i) buf[i] = static_cast<std::uint8_t>(i * 131 + 7);
  volatile std::uint32_t sink = serial::crc32(buf.data(), buf.size());
  std::vector<double> times;
  for (int r = 0; r < 15; ++r) {
    const Stopwatch watch;
    sink = serial::crc32(buf.data(), buf.size());
    times.push_back(watch.elapsed());
  }
  (void)sink;
  return static_cast<double>(buf.size()) / median(times) / 1e9;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = bench::Options::parse(argc, argv);
  bench::banner("E1 / Figure A", "effective bandwidth vs argument size");

  testkit::ClusterConfig config;
  config.servers = testkit::uniform_pool(1);
  config.rating_base = 1000.0;
  auto cluster = testkit::TestCluster::start(std::move(config));
  if (!cluster.ok()) {
    std::fprintf(stderr, "cluster failed: %s\n", cluster.error().to_string().c_str());
    return 1;
  }

  const LinkCase links[] = {
      {"loopback", net::LinkShape::unshaped(), 20},
      {"lan_100mbit", net::LinkShape::lan(), 18},
      {"wan_10mbit", net::LinkShape::wan(), 16},
  };

  bench::row("%-12s %10s %12s %14s %16s", "link", "doubles", "payload", "call_time",
             "eff_bandwidth");
  for (const auto& link : links) {
    auto client = cluster.value()->make_client(link.shape);
    const std::size_t max_log2n = opts.quick ? link.quick_max_log2n : 20;
    for (std::size_t log2n = 10; log2n <= max_log2n; log2n += 2) {
      const std::size_t n = std::size_t{1} << log2n;
      linalg::Vector x(n, 1.0), y(n, 2.0);
      const std::vector<DataObject> args = {DataObject(x), DataObject(y)};
      const std::uint64_t bytes = dsl::args_byte_size(args);

      // Few repetitions for big shaped transfers, more for small calls and
      // for the loopback rows the gate holds.
      const int reps = n <= (1u << 14) || link.shape.is_unshaped() ? 5 : 2;
      std::vector<double> times;
      for (int r = 0; r < reps; ++r) {
        client::CallStats stats;
        auto out = client.netsl("ddot", args, &stats);
        if (!out.ok()) {
          std::fprintf(stderr, "ddot failed: %s\n", out.error().to_string().c_str());
          return 1;
        }
        times.push_back(stats.total_seconds);
      }
      const double call_s = median(times);
      const double mbps = static_cast<double>(bytes) / call_s / 1e6;
      bench::row("%-12s %10zu %12s %14s %13.2f MB/s", link.name, n,
                 strings::format_bytes(static_cast<double>(bytes)).c_str(),
                 strings::format_seconds(call_s).c_str(), mbps);
      metrics::gauge("bench.transfer." + std::string(link.name) + "." + std::to_string(n) +
                     ".MBps")
          .set(mbps);
    }
  }
  bench::row("shape check: bandwidth should approach the link ceiling for large sizes");
  bench::row("  (loopback: host-limited, lan: ~12.5 MB/s, wan: ~1.25 MB/s)");

  const double crc_gbps = crc32_gbps();
  bench::row("frame crc32, 16 MiB: %.2f GB/s (%s path)", crc_gbps,
             serial::native_crc32_path() == serial::Crc32Path::kClmul ? "folded" : "portable");
  metrics::gauge("bench.transfer.crc32.GBps").set(crc_gbps);

  if (!opts.json_path.empty() &&
      !bench::write_metrics_json(opts.json_path, "bench_transfer", opts.quick)) {
    std::fprintf(stderr, "failed to write %s\n", opts.json_path.c_str());
    return 1;
  }
  return 0;
}
