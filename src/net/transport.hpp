// Framed message transport: one NetSolve protocol message per frame.
#pragma once

#include <cstdint>

#include "common/error.hpp"
#include "net/shaped_link.hpp"
#include "net/socket.hpp"
#include "serial/codec.hpp"
#include "serial/frame.hpp"

namespace ns::net {

struct Message {
  std::uint16_t type = 0;
  serial::Bytes payload;
};

/// Transport-level backpressure frame. When a reactor's accept governor
/// sheds a dial (connection cap reached with nothing evictable, or buffer
/// budgets hot) it writes this one frame and closes — a peer that speaks the
/// protocol learns it was load-shed (not that the host died) and gets a
/// retry-after hint. Deliberately outside the proto::MessageType range: the
/// frame belongs to the transport, not the application.
inline constexpr std::uint16_t kTransportBusyType = 0xFFF0;

/// Payload for kTransportBusyType: a single f64, seconds to back off.
serial::Bytes encode_busy_payload(double retry_after_s);

/// Parse a kTransportBusyType payload; malformed payloads yield `fallback`.
double decode_busy_retry_after(const serial::Bytes& payload, double fallback = 0.25);

/// Client-role frame cap: the largest payload a reply may claim before the
/// client buffers a byte of it. Servers already enforce a per-role cap at
/// their reactor (GuardConfig::max_frame_bytes); this is the mirror for the
/// dial-out side, where a hostile or corrupted peer could otherwise make a
/// client allocate up to the 1 GiB absolute frame limit from a 16-byte
/// header. Large enough for any legitimate result matrix, small enough that
/// one bad header cannot take out the process.
inline constexpr std::size_t kClientMaxFrameBytes = 256u << 20;  // 256 MiB

/// Serialize `payload` under `type` and send it as one frame, shaped. The
/// header and payload leave in one gathered write; only an armed fault plan,
/// which damages the frame in place, assembles a contiguous copy.
Status send_message(TcpConnection& conn, std::uint16_t type, const serial::Bytes& payload,
                    const LinkShape& shape = LinkShape::unshaped());

/// The unarmed half of send_message: write a header already built by
/// serial::encode_frame_header, then its payload. Lets a caller that shares
/// the socket (MuxChannel) run the CRC pass before taking its send lock.
Status send_framed(TcpConnection& conn, const std::uint8_t header[serial::kHeaderSize],
                   const serial::Bytes& payload, const LinkShape& shape = LinkShape::unshaped());

/// Receive one complete frame; validates magic, version, size and CRC.
/// Payloads over `max_payload` are rejected at header-decode time (counted
/// in net.guard.oversized_total) before any buffering.
Result<Message> recv_message(TcpConnection& conn, double timeout_secs,
                             std::size_t max_payload = kClientMaxFrameBytes);

}  // namespace ns::net
