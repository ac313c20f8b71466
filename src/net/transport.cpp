#include "net/transport.hpp"

#include "common/memgov.hpp"
#include "common/metrics.hpp"
#include "net/fault.hpp"

namespace ns::net {

namespace {

/// Apply any armed fault to the outgoing frame. Looks the link up by the
/// connection's peer endpoint first, then by its local endpoint — an accepted
/// server socket's local endpoint is the listen address tests arm plans on,
/// so one plan covers both directions of a server's link.
Result<std::optional<FaultMode>> roll_send_fault(TcpConnection& conn, std::uint16_t type,
                                                 serial::Bytes& frame) {
  auto& injector = FaultInjector::instance();
  auto peer = conn.peer_endpoint();
  if (peer.ok()) {
    auto fault = injector.on_send(peer.value(), type, frame.data(), frame.size());
    if (fault) return fault;
  }
  auto local = conn.local_endpoint();
  if (local.ok()) {
    return injector.on_send(local.value(), type, frame.data(), frame.size());
  }
  return std::optional<FaultMode>{};
}

}  // namespace

Status send_message(TcpConnection& conn, std::uint16_t type, const serial::Bytes& payload,
                    const LinkShape& shape) {
  if (FaultInjector::instance().armed()) {
    // Fault plans act on whole frames (a corruption flips bytes in place, a
    // reset sends half of one), so only this path assembles the frame.
    serial::Bytes frame = serial::build_frame(type, payload);
    auto fault = roll_send_fault(conn, type, frame);
    if (!fault.ok()) return fault.error();
    if (fault.value()) {
      switch (*fault.value()) {
        case FaultMode::kReset:
        case FaultMode::kPartition: {
          // Half a frame then a hard shutdown: the peer reads a truncated
          // stream and sees kConnectionClosed, exactly like a mid-flight RST.
          // shutdown, not close: on a pooled mux channel a reader thread is
          // concurrently polling this fd, and close() would free the
          // descriptor under it (the owner closes it when the channel dies).
          (void)conn.send_all(frame.data(), frame.size() / 2);
          conn.shutdown_both();
          return make_error(ErrorCode::kConnectionClosed,
                            std::string("injected ") + std::string(fault_mode_name(*fault.value())) +
                                " on send");
        }
        case FaultMode::kStall: {
          // Partial frame then silence. The sender "succeeds" (the bytes left
          // the building); the reader's recv timeout is what surfaces it.
          const std::size_t partial = frame.size() > 1 ? frame.size() / 2 : 1;
          (void)conn.send_all(frame.data(), partial);
          return ok_status();
        }
        case FaultMode::kCorrupt:
          // Bytes already flipped in place by on_send; deliver the damaged
          // frame normally and let the CRC catch it on the far side.
          break;
        case FaultMode::kConnectRefused:
          break;  // connect-only, never returned for sends
      }
    }
    return shaped_send(conn, frame.data(), frame.size(), shape);
  }
  std::uint8_t header[serial::kHeaderSize];
  serial::encode_frame_header(type, payload, header);
  return send_framed(conn, header, payload, shape);
}

Status send_framed(TcpConnection& conn, const std::uint8_t header[serial::kHeaderSize],
                   const serial::Bytes& payload, const LinkShape& shape) {
  return shaped_send(conn, header, serial::kHeaderSize, payload.data(), payload.size(), shape);
}

serial::Bytes encode_busy_payload(double retry_after_s) {
  serial::Encoder enc;
  enc.put_f64(retry_after_s);
  return enc.take();
}

double decode_busy_retry_after(const serial::Bytes& payload, double fallback) {
  serial::Decoder dec(payload);
  auto v = dec.get_f64();
  if (!v.ok() || !(v.value() >= 0.0) || v.value() > 60.0) return fallback;
  return v.value();
}

Result<Message> recv_message(TcpConnection& conn, double timeout_secs,
                             std::size_t max_payload) {
  std::uint8_t header_bytes[serial::kHeaderSize];
  NS_RETURN_IF_ERROR(conn.recv_all(header_bytes, sizeof(header_bytes), timeout_secs));
  auto header = serial::decode_header(header_bytes);
  if (!header.ok()) return header.error();
  if (header.value().length > max_payload) {
    // Role frame cap, mirror of the reactor's: the claim is rejected before
    // the allocation it would cost, and the connection is unusable anyway
    // (the oversized body would still be in the stream).
    metrics::counter("net.guard.oversized_total").inc();
    return make_error(ErrorCode::kProtocol, "frame exceeds client payload cap");
  }

  Message msg;
  msg.type = header.value().type;
  try {
    mem::alloc_trip("net.recv");
    msg.payload.resize(header.value().length);
  } catch (const std::bad_alloc&) {
    metrics::counter("mem.bad_alloc_total").inc();
    return make_error(ErrorCode::kServerOverloaded, "allocation failed buffering frame");
  }
  if (header.value().length > 0) {
    NS_RETURN_IF_ERROR(conn.recv_all(msg.payload.data(), msg.payload.size(), timeout_secs));
  }
  NS_RETURN_IF_ERROR(serial::check_payload(header.value(), msg.payload));
  return msg;
}

}  // namespace ns::net
