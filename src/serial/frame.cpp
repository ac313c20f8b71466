#include "serial/frame.hpp"

#include "serial/crc32.hpp"

namespace ns::serial {

namespace {

// CRC over everything the magic/version checks don't already pin down: the
// type and length fields (little-endian, as on the wire) plus the payload.
std::uint32_t frame_crc(std::uint16_t type, std::uint32_t length, const Bytes& payload) {
  const std::uint8_t meta[6] = {
      static_cast<std::uint8_t>(type),         static_cast<std::uint8_t>(type >> 8),
      static_cast<std::uint8_t>(length),       static_cast<std::uint8_t>(length >> 8),
      static_cast<std::uint8_t>(length >> 16), static_cast<std::uint8_t>(length >> 24)};
  std::uint32_t crc = crc32_update(kCrc32Init, meta, sizeof(meta));
  crc = crc32_update(crc, payload.data(), payload.size());
  return crc32_final(crc);
}

}  // namespace

void encode_header(const FrameHeader& header, std::uint8_t out[kHeaderSize]) {
  auto put32 = [&out](std::size_t at, std::uint32_t v) {
    for (std::size_t i = 0; i < 4; ++i) out[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
  };
  auto put16 = [&out](std::size_t at, std::uint16_t v) {
    for (std::size_t i = 0; i < 2; ++i) out[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
  };
  put32(0, kFrameMagic);
  put16(4, header.version);
  put16(6, header.type);
  put32(8, header.length);
  put32(12, header.crc);
}

Result<FrameHeader> decode_header(const std::uint8_t data[kHeaderSize],
                                  std::size_t max_payload) {
  auto get32 = [&data](std::size_t at) {
    std::uint32_t v = 0;
    for (std::size_t i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(data[at + i]) << (8 * i);
    return v;
  };
  auto get16 = [&data](std::size_t at) {
    return static_cast<std::uint16_t>(data[at] | (data[at + 1] << 8));
  };
  if (get32(0) != kFrameMagic) {
    return make_error(ErrorCode::kProtocol, "bad frame magic");
  }
  FrameHeader header;
  header.version = get16(4);
  header.type = get16(6);
  header.length = get32(8);
  header.crc = get32(12);
  if (header.version != kProtocolVersion) {
    return make_error(ErrorCode::kVersion,
                      "protocol version " + std::to_string(header.version) +
                          " != " + std::to_string(kProtocolVersion));
  }
  if (header.length > kMaxPayload || header.length > max_payload) {
    return make_error(ErrorCode::kProtocol, "frame payload too large");
  }
  return header;
}

Bytes build_frame(std::uint16_t type, const Bytes& payload) {
  Bytes frame(kHeaderSize + payload.size());
  encode_frame_header(type, payload, frame.data());
  if (!payload.empty()) {
    std::memcpy(frame.data() + kHeaderSize, payload.data(), payload.size());
  }
  return frame;
}

void encode_frame_header(std::uint16_t type, const Bytes& payload,
                         std::uint8_t out[kHeaderSize]) {
  FrameHeader header;
  header.type = type;
  header.length = static_cast<std::uint32_t>(payload.size());
  header.crc = frame_crc(type, header.length, payload);
  encode_header(header, out);
}

Status check_payload(const FrameHeader& header, const Bytes& payload) {
  if (payload.size() != header.length) {
    return make_error(ErrorCode::kProtocol, "payload length mismatch");
  }
  if (frame_crc(header.type, header.length, payload) != header.crc) {
    // Retryable: the header framed correctly, so this is in-flight damage
    // (or an injected corruption fault), not a framing bug.
    return make_error(ErrorCode::kCorruptFrame, "frame CRC mismatch");
  }
  return ok_status();
}

}  // namespace ns::serial
