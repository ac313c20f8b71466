// Unit + property tests for ns_serial: codec round-trips, bounds checking,
// CRC32 (differential against a bitwise reference), frame encode/decode,
// and golden bytes pinning the on-wire and on-disk CRC-framed formats.
#include <gtest/gtest.h>
#include <stdlib.h>

#include <algorithm>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "common/memgov.hpp"
#include "common/rng.hpp"
#include "serial/codec.hpp"
#include "serial/crc32.hpp"
#include "serial/frame.hpp"
#include "server/journal.hpp"

namespace ns::serial {
namespace {

// ---- scalar round trips ----

TEST(CodecTest, ScalarRoundTrip) {
  Encoder enc;
  enc.put_u8(0xab);
  enc.put_u16(0xbeef);
  enc.put_u32(0xdeadbeefu);
  enc.put_u64(0x0123456789abcdefULL);
  enc.put_i32(-12345);
  enc.put_i64(-9876543210LL);
  enc.put_f64(3.14159);
  enc.put_bool(true);
  enc.put_bool(false);

  Decoder dec(enc.bytes());
  EXPECT_EQ(dec.get_u8().value(), 0xab);
  EXPECT_EQ(dec.get_u16().value(), 0xbeef);
  EXPECT_EQ(dec.get_u32().value(), 0xdeadbeefu);
  EXPECT_EQ(dec.get_u64().value(), 0x0123456789abcdefULL);
  EXPECT_EQ(dec.get_i32().value(), -12345);
  EXPECT_EQ(dec.get_i64().value(), -9876543210LL);
  EXPECT_DOUBLE_EQ(dec.get_f64().value(), 3.14159);
  EXPECT_TRUE(dec.get_bool().value());
  EXPECT_FALSE(dec.get_bool().value());
  EXPECT_TRUE(dec.exhausted());
  EXPECT_TRUE(dec.expect_exhausted().ok());
}

TEST(CodecTest, LittleEndianLayout) {
  Encoder enc;
  enc.put_u32(0x01020304u);
  const auto& b = enc.bytes();
  ASSERT_EQ(b.size(), 4u);
  EXPECT_EQ(b[0], 0x04);
  EXPECT_EQ(b[1], 0x03);
  EXPECT_EQ(b[2], 0x02);
  EXPECT_EQ(b[3], 0x01);
}

TEST(CodecTest, SpecialDoubles) {
  Encoder enc;
  enc.put_f64(0.0);
  enc.put_f64(-0.0);
  enc.put_f64(std::numeric_limits<double>::infinity());
  enc.put_f64(-std::numeric_limits<double>::infinity());
  enc.put_f64(std::numeric_limits<double>::denorm_min());
  enc.put_f64(std::numeric_limits<double>::max());

  Decoder dec(enc.bytes());
  EXPECT_EQ(dec.get_f64().value(), 0.0);
  EXPECT_EQ(dec.get_f64().value(), -0.0);
  EXPECT_EQ(dec.get_f64().value(), std::numeric_limits<double>::infinity());
  EXPECT_EQ(dec.get_f64().value(), -std::numeric_limits<double>::infinity());
  EXPECT_EQ(dec.get_f64().value(), std::numeric_limits<double>::denorm_min());
  EXPECT_EQ(dec.get_f64().value(), std::numeric_limits<double>::max());
}

TEST(CodecTest, NanRoundTripsBitExact) {
  Encoder enc;
  enc.put_f64(std::numeric_limits<double>::quiet_NaN());
  Decoder dec(enc.bytes());
  EXPECT_TRUE(std::isnan(dec.get_f64().value()));
}

// ---- strings / blobs / arrays ----

TEST(CodecTest, StringRoundTrip) {
  Encoder enc;
  enc.put_string("");
  enc.put_string("hello world");
  enc.put_string(std::string(1000, 'x'));

  Decoder dec(enc.bytes());
  EXPECT_EQ(dec.get_string().value(), "");
  EXPECT_EQ(dec.get_string().value(), "hello world");
  EXPECT_EQ(dec.get_string().value(), std::string(1000, 'x'));
}

TEST(CodecTest, StringWithEmbeddedNulAndBinary) {
  std::string s = "a";
  s.push_back('\0');
  s += "b\xff";
  Encoder enc;
  enc.put_string(s);
  Decoder dec(enc.bytes());
  EXPECT_EQ(dec.get_string().value(), s);
}

TEST(CodecTest, F64ArrayRoundTrip) {
  std::vector<double> v{1.5, -2.25, 0.0, 1e300, -1e-300};
  Encoder enc;
  enc.put_f64_array(v);
  Decoder dec(enc.bytes());
  EXPECT_EQ(dec.get_f64_array().value(), v);

  // After a u8 the array's elements sit at odd, unaligned offsets.
  Encoder odd;
  odd.put_u8(0x5a);
  odd.put_f64_array(v);
  Decoder odd_dec(odd.bytes());
  EXPECT_EQ(odd_dec.get_u8().value(), 0x5a);
  EXPECT_EQ(odd_dec.get_f64_array().value(), v);
  EXPECT_TRUE(odd_dec.exhausted());
}

TEST(CodecTest, I32ArrayRoundTrip) {
  std::vector<std::int32_t> v{0, -1, 2147483647, -2147483648};
  Encoder enc;
  enc.put_i32_array(v);
  Decoder dec(enc.bytes());
  EXPECT_EQ(dec.get_i32_array().value(), v);
}

TEST(CodecTest, EmptyArrays) {
  Encoder enc;
  enc.put_f64_array(std::vector<double>{});
  enc.put_i32_array(std::vector<std::int32_t>{});
  Decoder dec(enc.bytes());
  EXPECT_TRUE(dec.get_f64_array().value().empty());
  EXPECT_TRUE(dec.get_i32_array().value().empty());
}

// ---- malformed input rejection ----

TEST(CodecTest, TruncatedScalarFails) {
  Encoder enc;
  enc.put_u16(7);
  Decoder dec(enc.bytes());
  EXPECT_FALSE(dec.get_u32().ok());
}

TEST(CodecTest, TruncatedStringFails) {
  Encoder enc;
  enc.put_u32(100);  // claims 100 bytes, provides none
  Decoder dec(enc.bytes());
  auto r = dec.get_string();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ErrorCode::kProtocol);
}

TEST(CodecTest, OversizedStringRejected) {
  Encoder enc;
  enc.put_string("hello");
  Decoder dec(enc.bytes());
  EXPECT_FALSE(dec.get_string(/*max_len=*/3).ok());
}

TEST(CodecTest, OversizedArrayRejected) {
  Encoder enc;
  enc.put_u32(0xffffffffu);  // absurd element count
  Decoder dec(enc.bytes());
  EXPECT_FALSE(dec.get_f64_array().ok());
}

TEST(CodecTest, BadBoolRejected) {
  Encoder enc;
  enc.put_u8(2);
  Decoder dec(enc.bytes());
  EXPECT_FALSE(dec.get_bool().ok());
}

TEST(CodecTest, TrailingBytesDetected) {
  Encoder enc;
  enc.put_u32(1);
  enc.put_u32(2);
  Decoder dec(enc.bytes());
  (void)dec.get_u32();
  EXPECT_FALSE(dec.expect_exhausted().ok());
}

// ---- property: random message round trips ----

class CodecPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CodecPropertyTest, RandomMixRoundTrips) {
  Rng rng(GetParam());
  // Build a random sequence of typed fields, encode, decode, compare.
  constexpr int kFields = 64;
  std::vector<int> kinds(kFields);
  std::vector<std::uint64_t> u64s(kFields);
  std::vector<double> doubles(kFields);
  std::vector<std::string> strings(kFields);

  Encoder enc;
  for (int i = 0; i < kFields; ++i) {
    kinds[i] = static_cast<int>(rng.uniform_int(0, 2));
    switch (kinds[i]) {
      case 0:
        u64s[i] = rng.next_u64();
        enc.put_u64(u64s[i]);
        break;
      case 1:
        doubles[i] = rng.normal() * 1e6;
        enc.put_f64(doubles[i]);
        break;
      default: {
        const auto len = static_cast<std::size_t>(rng.uniform_int(0, 32));
        std::string s;
        for (std::size_t k = 0; k < len; ++k) {
          s.push_back(static_cast<char>(rng.uniform_int(0, 255)));
        }
        strings[i] = s;
        enc.put_string(s);
        break;
      }
    }
  }

  Decoder dec(enc.bytes());
  for (int i = 0; i < kFields; ++i) {
    switch (kinds[i]) {
      case 0:
        EXPECT_EQ(dec.get_u64().value(), u64s[i]);
        break;
      case 1:
        EXPECT_DOUBLE_EQ(dec.get_f64().value(), doubles[i]);
        break;
      default:
        EXPECT_EQ(dec.get_string().value(), strings[i]);
        break;
    }
  }
  EXPECT_TRUE(dec.expect_exhausted().ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

// ---- CRC32 ----
//
// Every case runs on every path this build can run here, so the portable
// slicing-by-8 path stays tested on a host that defaults to the folded one.

const char* path_name(Crc32Path path) {
  return path == Crc32Path::kClmul ? "clmul" : "portable";
}

TEST(Crc32Test, KnownVector) {
  // The canonical IEEE test vector.
  const char* s = "123456789";
  for (const Crc32Path path : supported_crc32_paths()) {
    EXPECT_EQ(crc32(s, 9, path), 0xcbf43926u) << path_name(path);
  }
}

TEST(Crc32Test, EmptyIsZero) {
  for (const Crc32Path path : supported_crc32_paths()) {
    EXPECT_EQ(crc32(nullptr, 0, path), 0u) << path_name(path);
  }
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  for (const Crc32Path path : supported_crc32_paths()) {
    std::uint32_t crc = kCrc32Init;
    crc = crc32_update(crc, data.data(), 10, path);
    crc = crc32_update(crc, data.data() + 10, data.size() - 10, path);
    EXPECT_EQ(crc32_final(crc), crc32(data.data(), data.size(), path)) << path_name(path);
  }
}

TEST(Crc32Test, SensitiveToSingleBitFlip) {
  for (const Crc32Path path : supported_crc32_paths()) {
    for (const std::size_t size : {std::size_t{64}, std::size_t{1000}}) {
      std::string data(size, 'a');
      const auto base = crc32(data.data(), data.size(), path);
      data[17] = 'b';
      EXPECT_NE(crc32(data.data(), data.size(), path), base) << path_name(path) << " " << size;
    }
  }
}

// The simplest correct CRC-32: bit at a time, reflected 0xEDB88320. Every
// path must agree with it on every input.
std::uint32_t reference_crc32_update(std::uint32_t crc, const std::uint8_t* data,
                                     std::size_t size) {
  for (std::size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int k = 0; k < 8; ++k) crc = (crc & 1u) ? (0xedb88320u ^ (crc >> 1)) : (crc >> 1);
  }
  return crc;
}

std::uint32_t reference_crc32(const std::uint8_t* data, std::size_t size) {
  return crc32_final(reference_crc32_update(kCrc32Init, data, size));
}

Bytes random_bytes(Rng& rng, std::size_t size) {
  Bytes bytes(size);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next_u64());
  return bytes;
}

TEST(Crc32Test, MatchesBitwiseReferenceAtEveryLengthAndAlignment) {
  // Every length 0..1024 covers each count of 64-byte blocks, 16-byte
  // blocks and tail bytes the folded path splits an input into; offsets
  // 0..15 put the 16-byte loads at every alignment.
  constexpr std::size_t kMaxLen = 1024;
  Rng rng(0xc3c32);
  const Bytes buf = random_bytes(rng, 4099 + 16);
  for (std::size_t align = 0; align < 16; ++align) {
    const std::uint8_t* p = buf.data() + align;
    // prefix[n] is the reference running value over p[0, n).
    std::vector<std::uint32_t> prefix{kCrc32Init};
    for (std::size_t n = 0; n < kMaxLen; ++n) {
      prefix.push_back(reference_crc32_update(prefix.back(), p + n, 1));
    }
    for (const Crc32Path path : supported_crc32_paths()) {
      for (std::size_t n = 0; n <= kMaxLen; ++n) {
        ASSERT_EQ(crc32(p, n, path), crc32_final(prefix[n]))
            << path_name(path) << " length " << n << " offset " << align;
      }
    }
  }
  for (int i = 0; i < 200; ++i) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(0, 4099));
    const auto align = static_cast<std::size_t>(rng.uniform_int(0, 15));
    const std::uint8_t* p = buf.data() + align;
    for (const Crc32Path path : supported_crc32_paths()) {
      ASSERT_EQ(crc32(p, n, path), reference_crc32(p, n))
          << path_name(path) << " length " << n << " offset " << align;
    }
  }
}

TEST(Crc32Test, MatchesBitwiseReferenceOnLargeBuffers) {
  Rng rng(0x1a2be);
  for (const std::size_t n : {std::size_t{1} << 20, (std::size_t{16} << 20) + 7}) {
    const Bytes buf = random_bytes(rng, n);
    const std::uint32_t expected = reference_crc32(buf.data(), buf.size());
    for (const Crc32Path path : supported_crc32_paths()) {
      EXPECT_EQ(crc32(buf.data(), buf.size(), path), expected)
          << path_name(path) << " length " << n;
    }
  }
}

TEST(Crc32Test, SplitAtEveryOffsetFromAnySeed) {
  // A split anywhere in 300 bytes cuts the folded path's 64- and 16-byte
  // block boundaries at every phase, and the seeds stand for the running
  // value left by an earlier update. The two halves may run on different
  // paths: each path continues any running value.
  Rng rng(0x300);
  const Bytes buf = random_bytes(rng, 300);
  for (const std::uint32_t seed : {kCrc32Init, 0u, 0x12345678u, 0xdeadbeefu}) {
    const std::uint32_t expected = reference_crc32_update(seed, buf.data(), buf.size());
    for (const Crc32Path first : supported_crc32_paths()) {
      for (const Crc32Path second : supported_crc32_paths()) {
        for (std::size_t at = 0; at <= buf.size(); ++at) {
          const std::uint32_t head = crc32_update(seed, buf.data(), at, first);
          ASSERT_EQ(crc32_update(head, buf.data() + at, buf.size() - at, second), expected)
              << path_name(first) << "+" << path_name(second) << " seed " << seed << " split "
              << at;
        }
      }
    }
  }
}

TEST(Crc32Test, RandomSplitsChainThroughUpdate) {
  Rng rng(0x5917);
  for (int iter = 0; iter < 200; ++iter) {
    const Bytes buf = random_bytes(rng, static_cast<std::size_t>(rng.uniform_int(0, 4099)));
    for (const Crc32Path path : supported_crc32_paths()) {
      std::uint32_t crc = kCrc32Init;
      std::size_t at = 0;
      while (at < buf.size()) {
        const auto step = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(buf.size() - at)));
        crc = crc32_update(crc, buf.data() + at, step, path);
        at += step;
      }
      ASSERT_EQ(crc32_final(crc), reference_crc32(buf.data(), buf.size()))
          << path_name(path) << " iteration " << iter << " length " << buf.size();
    }
  }
}

// ---- golden bytes ----
//
// Hex images captured from the bytewise-CRC implementation. Old peers, old
// journals and old spill files must keep verifying, so these never change
// unless the formats themselves do.

Bytes from_hex(const std::string& hex) {
  Bytes out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<std::uint8_t>(std::stoi(hex.substr(i, 2), nullptr, 16)));
  }
  return out;
}

Bytes golden_payload() {
  Bytes payload(37);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 7 + 3);
  }
  return payload;
}

TEST(GoldenBytesTest, FrameImageIsPinned) {
  const Bytes expected = from_hex(
      "4e53563101000201250000006e84ac81"
      "030a11181f262d343b424950575e656c737a81888f969da4abb2b9c0c7ced5dce3eaf1f8ff");
  EXPECT_EQ(build_frame(0x0102, golden_payload()), expected);
  std::uint8_t header[kHeaderSize];
  encode_frame_header(0x0102, golden_payload(), header);
  EXPECT_EQ(Bytes(header, header + kHeaderSize), Bytes(expected.begin(), expected.begin() + 16));
  EXPECT_EQ(build_frame(0x0102, {}), from_hex("4e535631010002010000000018296ac1"));
}

TEST(GoldenBytesTest, FoldedFrameImageIsPinned) {
  // On a PCLMUL host, 211 payload bytes reach the folded CRC path: three
  // 64-byte blocks, one 16-byte block and a 3-byte tail. The header was
  // computed with an independent bitwise CRC-32.
  Bytes payload(211);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 13 + 5);
  }
  Bytes expected = from_hex("4e53563101000201d3000000acbdb9b2");
  expected.insert(expected.end(), payload.begin(), payload.end());
  EXPECT_EQ(build_frame(0x0102, payload), expected);
}

TEST(GoldenBytesTest, JournalRecordIsPinned) {
  server::JournalRecord rec;
  rec.type = server::JournalRecordType::kCheckpoint;
  rec.request_id = 0x0123456789abcdefull;
  rec.wall_micros = 1700000000000000ll;
  rec.deadline_remaining_s = 2.5;
  rec.iteration = 40;
  rec.residual = 1e-9;
  rec.data = {1, 2, 3, 4};
  Bytes out;
  rec.frame(out);
  EXPECT_EQ(out, from_hex("310000003e3cbf7703efcdab896745230100401e18240a0600000000000000044028"
                          "0000000000000095d626e80b2e113e0400000001020304"));
}

TEST(GoldenBytesTest, SpillFileHeaderIsPinned) {
  char tmpl[] = "/tmp/ns_golden_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;
  mem::SpillStore store;
  store.configure(dir);
  std::vector<std::uint8_t> bytes(100);
  for (std::size_t i = 0; i < bytes.size(); ++i) bytes[i] = static_cast<std::uint8_t>(255 - i * 3);
  ASSERT_TRUE(store.save(77, bytes).ok());
  std::ifstream in(dir + "/77.spill", std::ios::binary);
  const Bytes file((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  ASSERT_EQ(file.size(), 16u + bytes.size());
  EXPECT_EQ(Bytes(file.begin(), file.begin() + 16), from_hex("5053534e7e7a157c6400000000000000"));
}

// ---- frames ----

TEST(FrameTest, HeaderRoundTrip) {
  FrameHeader header;
  header.type = 42;
  header.length = 1234;
  header.crc = 0xabcdef01u;
  std::uint8_t buf[kHeaderSize];
  encode_header(header, buf);
  auto decoded = decode_header(buf);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().type, 42);
  EXPECT_EQ(decoded.value().length, 1234u);
  EXPECT_EQ(decoded.value().crc, 0xabcdef01u);
  EXPECT_EQ(decoded.value().version, kProtocolVersion);
}

TEST(FrameTest, BadMagicRejected) {
  std::uint8_t buf[kHeaderSize] = {};
  auto decoded = decode_header(buf);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().code, ErrorCode::kProtocol);
}

TEST(FrameTest, WrongVersionRejected) {
  FrameHeader header;
  header.version = kProtocolVersion + 1;
  std::uint8_t buf[kHeaderSize];
  encode_header(header, buf);
  auto decoded = decode_header(buf);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().code, ErrorCode::kVersion);
}

TEST(FrameTest, BuildAndValidate) {
  Bytes payload{1, 2, 3, 4, 5};
  const Bytes frame = build_frame(7, payload);
  ASSERT_EQ(frame.size(), kHeaderSize + payload.size());
  auto header = decode_header(frame.data());
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header.value().type, 7);
  Bytes body(frame.begin() + kHeaderSize, frame.end());
  EXPECT_TRUE(check_payload(header.value(), body).ok());
}

TEST(FrameTest, CorruptPayloadDetected) {
  Bytes payload{1, 2, 3, 4, 5};
  const Bytes frame = build_frame(7, payload);
  auto header = decode_header(frame.data()).value();
  Bytes body(frame.begin() + kHeaderSize, frame.end());
  body[2] ^= 0x40;
  auto status = check_payload(header, body);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, ErrorCode::kCorruptFrame);
  EXPECT_TRUE(is_retryable(status.error().code))
      << "in-flight damage must be retryable, not terminal";
}

TEST(FrameTest, LengthMismatchDetected) {
  Bytes payload{1, 2, 3};
  const Bytes frame = build_frame(7, payload);
  auto header = decode_header(frame.data()).value();
  Bytes short_body(frame.begin() + kHeaderSize, frame.end() - 1);
  EXPECT_FALSE(check_payload(header, short_body).ok());
}

TEST(FrameTest, EmptyPayloadFrame) {
  const Bytes frame = build_frame(9, {});
  auto header = decode_header(frame.data());
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header.value().length, 0u);
  EXPECT_TRUE(check_payload(header.value(), {}).ok());
}

// Fuzz the receive path: random frames with random byte flips must always
// fail *cleanly* — a validation error, never a crash or over-read — and
// payload-only damage must surface as the retryable kCorruptFrame (that is
// what the client's fault-tolerance loop keys on).
TEST(FrameTest, FuzzedByteFlipsFailCleanly) {
  Rng rng(0xf0220605);
  int header_rejects = 0;
  int payload_rejects = 0;
  int survived_intact = 0;

  for (int iter = 0; iter < 5000; ++iter) {
    Bytes payload(static_cast<std::size_t>(rng.uniform_int(0, 64)));
    for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next_u64());
    const auto type = static_cast<std::uint16_t>(rng.uniform_int(1, 18));
    const Bytes original = build_frame(type, payload);

    Bytes frame = original;
    const int flips = static_cast<int>(rng.uniform_int(1, 4));
    bool payload_only = true;
    for (int f = 0; f < flips; ++f) {
      const auto at = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(frame.size()) - 1));
      frame[at] ^= static_cast<std::uint8_t>(1 + (rng.next_u64() & 0xfe));
      if (at < kHeaderSize) payload_only = false;
    }

    // Mimic recv_message: parse the header, then take header.length bytes
    // (bounded by what actually arrived — a reader never reads past the
    // stream), then CRC-check.
    auto header = decode_header(frame.data());
    if (!header.ok()) {
      EXPECT_TRUE(header.error().code == ErrorCode::kProtocol ||
                  header.error().code == ErrorCode::kVersion)
          << header.error().to_string();
      ++header_rejects;
      continue;
    }
    const std::size_t avail = frame.size() - kHeaderSize;
    const std::size_t take = std::min<std::size_t>(header.value().length, avail);
    Bytes body(frame.begin() + static_cast<std::ptrdiff_t>(kHeaderSize),
               frame.begin() + static_cast<std::ptrdiff_t>(kHeaderSize + take));
    auto status = check_payload(header.value(), body);
    if (status.ok()) {
      // Flips can only cancel out by re-hitting the same byte with the same
      // mask; anything else passing validation would be a real CRC hole.
      EXPECT_EQ(frame, original) << "damaged frame passed validation";
      ++survived_intact;
      continue;
    }
    if (payload_only && take == payload.size()) {
      EXPECT_EQ(status.error().code, ErrorCode::kCorruptFrame);
      EXPECT_TRUE(is_retryable(status.error().code));
    }
    ++payload_rejects;
  }

  // The schedule must actually have exercised both rejection paths.
  EXPECT_GT(header_rejects, 0);
  EXPECT_GT(payload_rejects, 0);
  EXPECT_LT(survived_intact, 50);
}

// ---- pipelined streams ----
//
// The reactor and the mux channel no longer see one frame per connection:
// many frames share a stream, arrive glued together in one read, or split at
// arbitrary byte boundaries across reads. These tests drive the same
// incremental decode loop the reactor's drain uses (accumulate, decode every
// complete frame, keep the tail) against adversarial chunkings.

namespace {

/// One decoded frame: type + payload, plus the request id the transport's
/// demultiplexer would read from the first eight payload bytes.
struct StreamFrame {
  std::uint16_t type = 0;
  Bytes payload;
  std::uint64_t request_id = 0;
};

std::uint64_t peek_request_id(const Bytes& payload) {
  if (payload.size() < 8) return 0;
  std::uint64_t id = 0;
  for (std::size_t i = 0; i < 8; ++i) id |= static_cast<std::uint64_t>(payload[i]) << (8 * i);
  return id;
}

/// Incremental stream decoder mirroring Reactor::drain_frames: feed bytes in
/// arbitrary chunks; complete frames pop out in order. Any validation error
/// is terminal (a real connection would be closed).
class FrameStream {
 public:
  Status feed(const std::uint8_t* data, std::size_t size, std::vector<StreamFrame>* out) {
    buf_.insert(buf_.end(), data, data + size);
    std::size_t consumed = 0;
    while (buf_.size() - consumed >= kHeaderSize) {
      auto header = decode_header(buf_.data() + consumed);
      if (!header.ok()) return header.error();
      const std::size_t total = kHeaderSize + header.value().length;
      if (buf_.size() - consumed < total) break;  // frame split across reads
      Bytes payload(buf_.begin() + static_cast<std::ptrdiff_t>(consumed + kHeaderSize),
                    buf_.begin() + static_cast<std::ptrdiff_t>(consumed + total));
      NS_RETURN_IF_ERROR(check_payload(header.value(), payload));
      StreamFrame frame;
      frame.type = header.value().type;
      frame.request_id = peek_request_id(payload);
      frame.payload = std::move(payload);
      out->push_back(std::move(frame));
      consumed += total;
    }
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(consumed));
    return ok_status();
  }

 private:
  Bytes buf_;
};

}  // namespace

// Frames glued together, split mid-header, split mid-payload — every
// chunking of a valid stream must yield exactly the frames that were sent,
// in order, with their request ids intact.
TEST(FrameStreamTest, FuzzedChunkingPreservesFrames) {
  Rng rng(0x51de0a11);
  for (int iter = 0; iter < 400; ++iter) {
    const int frame_count = static_cast<int>(rng.uniform_int(1, 12));
    std::vector<StreamFrame> sent;
    Bytes wire;
    for (int f = 0; f < frame_count; ++f) {
      StreamFrame frame;
      frame.type = static_cast<std::uint16_t>(rng.uniform_int(1, 30));
      // Interleaved request ids: each frame tags a distinct logical call.
      frame.request_id = rng.next_u64() | 1;
      frame.payload.resize(8 + static_cast<std::size_t>(rng.uniform_int(0, 96)));
      for (std::size_t i = 0; i < 8; ++i) {
        frame.payload[i] = static_cast<std::uint8_t>(frame.request_id >> (8 * i));
      }
      for (std::size_t i = 8; i < frame.payload.size(); ++i) {
        frame.payload[i] = static_cast<std::uint8_t>(rng.next_u64());
      }
      const Bytes encoded = build_frame(frame.type, frame.payload);
      wire.insert(wire.end(), encoded.begin(), encoded.end());
      sent.push_back(std::move(frame));
    }

    // Deliver the whole stream in random-sized chunks (1 byte up to several
    // frames at once), so splits land mid-header and mid-payload.
    FrameStream stream;
    std::vector<StreamFrame> got;
    std::size_t off = 0;
    while (off < wire.size()) {
      const std::size_t chunk = std::min<std::size_t>(
          wire.size() - off, static_cast<std::size_t>(rng.uniform_int(1, 80)));
      ASSERT_TRUE(stream.feed(wire.data() + off, chunk, &got).ok());
      off += chunk;
    }

    ASSERT_EQ(got.size(), sent.size());
    for (std::size_t i = 0; i < sent.size(); ++i) {
      EXPECT_EQ(got[i].type, sent[i].type);
      EXPECT_EQ(got[i].request_id, sent[i].request_id) << "demux id must survive chunking";
      EXPECT_EQ(got[i].payload, sent[i].payload);
    }
  }
}

// Damage anywhere in a pipelined stream must fail cleanly at (or before) the
// damaged frame; every frame ahead of it still decodes.
TEST(FrameStreamTest, FuzzedDamageMidStreamFailsCleanly) {
  Rng rng(0xdeadf00d);
  int clean_failures = 0;
  for (int iter = 0; iter < 400; ++iter) {
    const int frame_count = static_cast<int>(rng.uniform_int(2, 8));
    Bytes wire;
    std::vector<std::size_t> starts;
    for (int f = 0; f < frame_count; ++f) {
      Bytes payload(8 + static_cast<std::size_t>(rng.uniform_int(0, 48)));
      for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next_u64());
      starts.push_back(wire.size());
      const Bytes encoded =
          build_frame(static_cast<std::uint16_t>(rng.uniform_int(1, 30)), payload);
      wire.insert(wire.end(), encoded.begin(), encoded.end());
    }
    const auto at =
        static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(wire.size()) - 1));
    wire[at] ^= static_cast<std::uint8_t>(1 + (rng.next_u64() & 0xfe));
    // Index of the first frame the flip could have touched.
    std::size_t damaged = 0;
    while (damaged + 1 < starts.size() && starts[damaged + 1] <= at) ++damaged;

    FrameStream stream;
    std::vector<StreamFrame> got;
    Status status = ok_status();
    std::size_t off = 0;
    while (off < wire.size() && status.ok()) {
      const std::size_t chunk = std::min<std::size_t>(
          wire.size() - off, static_cast<std::size_t>(rng.uniform_int(1, 64)));
      status = stream.feed(wire.data() + off, chunk, &got);
      off += chunk;
    }
    if (!status.ok()) {
      ++clean_failures;
      EXPECT_TRUE(status.error().code == ErrorCode::kCorruptFrame ||
                  status.error().code == ErrorCode::kProtocol ||
                  status.error().code == ErrorCode::kVersion)
          << status.error().to_string();
      EXPECT_GE(got.size(), damaged) << "frames ahead of the damage must have decoded";
    }
    // A length-field flip can also make the decoder wait for bytes that
    // never come — a real connection would hit its idle timeout. That shows
    // here as no error and fewer frames; both outcomes are clean, but the
    // decoder must never conjure extra frames.
    EXPECT_LE(got.size(), static_cast<std::size_t>(frame_count));
  }
  EXPECT_GT(clean_failures, 100) << "most flips must be detected, not absorbed";
}

}  // namespace
}  // namespace ns::serial
