// Link shaping: WAN emulation over loopback sockets.
//
// The original NetSolve evaluation spanned workstations on Ethernet and
// campus networks; the agent's scheduling decisions hinge on the
// latency + size/bandwidth term being non-trivial. On a single machine the
// loopback path is effectively free, so the sender applies a configurable
// LinkShape before/while writing: a one-way propagation delay plus
// token-bucket pacing of the byte stream to the target bandwidth.
//
// Shaping happens at the sender in user space — the receiver observes
// arrival times consistent with the emulated link, and because it is applied
// per logical transfer the agent's predicted transfer cost
// (latency + bytes/bandwidth) matches what the client actually measures.
#pragma once

#include <cstddef>
#include <limits>

#include "common/error.hpp"
#include "net/socket.hpp"

namespace ns::net {

struct LinkShape {
  /// One-way propagation delay in seconds applied once per transfer.
  double latency_s = 0.0;
  /// Sustained bytes/second; infinity disables pacing.
  double bandwidth_Bps = std::numeric_limits<double>::infinity();

  bool is_unshaped() const noexcept {
    return latency_s <= 0.0 && !(bandwidth_Bps < std::numeric_limits<double>::infinity());
  }

  /// Predicted transfer time of `bytes` over this link (the same formula the
  /// agent's scheduler uses for its network term).
  double predict_seconds(std::size_t bytes) const noexcept {
    double t = latency_s > 0 ? latency_s : 0.0;
    if (bandwidth_Bps < std::numeric_limits<double>::infinity() && bandwidth_Bps > 0) {
      t += static_cast<double>(bytes) / bandwidth_Bps;
    }
    return t;
  }

  /// Canonical profiles used across the experiments.
  static LinkShape unshaped() { return {}; }
  static LinkShape lan() { return LinkShape{0.0005, 12.5e6}; }   // ~100 Mb/s, 0.5 ms
  static LinkShape wan() { return LinkShape{0.020, 1.25e6}; }    // ~10 Mb/s, 20 ms
};

/// Sends two buffers (a frame header and its payload) over `conn` as one
/// transfer, honouring the shape. Chunked writes with token-bucket sleeps
/// keep the instantaneous rate near bandwidth_Bps even for transfers much
/// larger than the kernel socket buffer; pacing runs across the pair, so the
/// latency is paid once and a chunk may straddle the header/payload seam.
Status shaped_send(TcpConnection& conn, const void* head, std::size_t head_size,
                   const void* body, std::size_t body_size, const LinkShape& shape);

/// Single-buffer form of the above.
inline Status shaped_send(TcpConnection& conn, const void* data, std::size_t size,
                          const LinkShape& shape) {
  return shaped_send(conn, data, size, nullptr, 0, shape);
}

}  // namespace ns::net
