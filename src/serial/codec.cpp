#include "serial/codec.hpp"

#include <iterator>
#include <type_traits>

namespace ns::serial {

void Encoder::put_string(std::string_view s) {
  put_u32(static_cast<std::uint32_t>(s.size()));
  append(s.data(), s.size());
}

void Encoder::put_bytes(const void* data, std::size_t size) {
  put_u32(static_cast<std::uint32_t>(size));
  append(data, size);
}

void Encoder::put_f64_array(const double* data, std::size_t count) {
  put_u32(static_cast<std::uint32_t>(count));
  if constexpr (std::endian::native == std::endian::little) {
    append(data, count * sizeof(double));
  } else {
    for (std::size_t i = 0; i < count; ++i) put_f64(data[i]);
  }
}

void Encoder::put_i32_array(const std::int32_t* data, std::size_t count) {
  put_u32(static_cast<std::uint32_t>(count));
  if constexpr (std::endian::native == std::endian::little) {
    append(data, count * sizeof(std::int32_t));
  } else {
    for (std::size_t i = 0; i < count; ++i) put_i32(data[i]);
  }
}

Result<std::uint8_t> Decoder::get_u8() {
  if (remaining() < 1) return make_error(ErrorCode::kProtocol, "truncated input");
  return data_[pos_++];
}

Result<std::uint16_t> Decoder::get_u16() { return get_le<std::uint16_t>(); }
Result<std::uint32_t> Decoder::get_u32() { return get_le<std::uint32_t>(); }
Result<std::uint64_t> Decoder::get_u64() { return get_le<std::uint64_t>(); }

Result<std::int32_t> Decoder::get_i32() {
  auto v = get_le<std::uint32_t>();
  if (!v.ok()) return v.error();
  return static_cast<std::int32_t>(v.value());
}

Result<std::int64_t> Decoder::get_i64() {
  auto v = get_le<std::uint64_t>();
  if (!v.ok()) return v.error();
  return static_cast<std::int64_t>(v.value());
}

Result<double> Decoder::get_f64() {
  auto v = get_le<std::uint64_t>();
  if (!v.ok()) return v.error();
  return std::bit_cast<double>(v.value());
}

Result<bool> Decoder::get_bool() {
  auto v = get_u8();
  if (!v.ok()) return v.error();
  if (v.value() > 1) return make_error(ErrorCode::kProtocol, "bad bool encoding");
  return v.value() == 1;
}

Result<std::string> Decoder::get_string(std::size_t max_len) {
  auto len = get_u32();
  if (!len.ok()) return len.error();
  if (len.value() > max_len) return make_error(ErrorCode::kProtocol, "string too long");
  if (remaining() < len.value()) return make_error(ErrorCode::kProtocol, "truncated string");
  std::string out(reinterpret_cast<const char*>(data_ + pos_), len.value());
  pos_ += len.value();
  return out;
}

Result<Bytes> Decoder::get_blob(std::size_t max_len) {
  auto len = get_u32();
  if (!len.ok()) return len.error();
  if (len.value() > max_len) return make_error(ErrorCode::kProtocol, "blob too long");
  if (remaining() < len.value()) return make_error(ErrorCode::kProtocol, "truncated blob");
  Bytes out(data_ + pos_, data_ + pos_ + len.value());
  pos_ += len.value();
  return out;
}

namespace {

/// Walks a little-endian T array in a byte buffer, decoding on dereference,
/// so std::vector's range constructor allocates once and writes each
/// element once: no zero-fill pass ahead of the copy.
template <typename T>
struct LeLoad {
  using iterator_category = std::random_access_iterator_tag;
  using value_type = T;
  using difference_type = std::ptrdiff_t;
  using pointer = const T*;
  using reference = T;

  const std::uint8_t* p;

  T operator*() const {
    if constexpr (std::endian::native == std::endian::little) {
      T v;
      std::memcpy(&v, p, sizeof(T));
      return v;
    } else {
      using U = std::conditional_t<sizeof(T) == 8, std::uint64_t, std::uint32_t>;
      U bits = 0;
      for (std::size_t b = 0; b < sizeof(T); ++b) bits |= static_cast<U>(p[b]) << (8 * b);
      return std::bit_cast<T>(bits);
    }
  }
  LeLoad& operator++() {
    p += sizeof(T);
    return *this;
  }
  difference_type operator-(const LeLoad& other) const {
    return (p - other.p) / static_cast<difference_type>(sizeof(T));
  }
  bool operator==(const LeLoad& other) const { return p == other.p; }
};

}  // namespace

template <typename T>
Result<std::vector<T>> Decoder::get_array(std::size_t max_count, const char* truncated) {
  auto count = get_u32();
  if (!count.ok()) return count.error();
  if (count.value() > max_count) return make_error(ErrorCode::kProtocol, "array too long");
  const std::size_t bytes = static_cast<std::size_t>(count.value()) * sizeof(T);
  if (remaining() < bytes) return make_error(ErrorCode::kProtocol, truncated);
  const std::uint8_t* first = data_ + pos_;
  pos_ += bytes;
  return std::vector<T>(LeLoad<T>{first}, LeLoad<T>{first + bytes});
}

Result<std::vector<double>> Decoder::get_f64_array(std::size_t max_count) {
  return get_array<double>(max_count, "truncated f64 array");
}

Result<std::vector<std::int32_t>> Decoder::get_i32_array(std::size_t max_count) {
  return get_array<std::int32_t>(max_count, "truncated i32 array");
}

Status Decoder::expect_exhausted() const {
  if (!exhausted()) {
    return make_error(ErrorCode::kProtocol,
                      "trailing bytes after message: " + std::to_string(remaining()));
  }
  return ok_status();
}

}  // namespace ns::serial
