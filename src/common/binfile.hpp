// The codec for the library's one binary file format, FDBC campaign
// checkpoints (fault/checkpoint.hpp).
//
// The file is one frame, with every integer little-endian, so a file
// reads the same on every host:
//
//   offset size  field
//   0      4     magic (names the format)
//   4      4     u32  format version
//   8      ...   payload, written and read through ByteWriter/ByteReader
//   end-8  8     u64  FNV-1a of every preceding byte
//
// open_file() checks a frame in a fixed order: size floor, magic,
// version, checksum. A file of another format or version is therefore
// named as such even when its trailer no longer matches, and damage
// anywhere else surfaces as a checksum mismatch before any payload
// field is parsed. Each format then validates its own fields through
// the reader: every read is bounds-checked, and every count read from
// a file is checked against the bytes left before anything is
// allocated, so a crafted count fails cleanly instead of driving an
// allocation.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <ranges>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common/error.hpp"

namespace fdbist::common {

namespace detail {

template <typename T>
inline constexpr bool kWireType =
    (std::is_integral_v<T> || std::is_enum_v<T>) && sizeof(T) <= 8;

/// Store `n` values little-endian at `dst`.
template <typename T>
void store_le(std::uint8_t* dst, const T* src, std::size_t n) {
  static_assert(kWireType<T>);
  if constexpr (std::endian::native == std::endian::little) {
    if (n != 0) std::memcpy(dst, src, n * sizeof(T));
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      const auto v = static_cast<std::uint64_t>(src[i]);
      for (std::size_t b = 0; b < sizeof(T); ++b)
        *dst++ = std::uint8_t(v >> (8 * b));
    }
  }
}

/// Load `n` little-endian values from `src`.
template <typename T>
void load_le(T* dst, const std::uint8_t* src, std::size_t n) {
  static_assert(kWireType<T>);
  if constexpr (std::endian::native == std::endian::little) {
    if (n != 0) std::memcpy(dst, src, n * sizeof(T));
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      std::uint64_t v = 0;
      for (std::size_t b = 0; b < sizeof(T); ++b)
        v |= std::uint64_t(*src++) << (8 * b);
      dst[i] = static_cast<T>(v);
    }
  }
}

} // namespace detail

/// Append-only little-endian serializer. Fixed-width puts only — no
/// varints, so every field sits at a position independent of the
/// values before it.
class ByteWriter {
public:
  void put_u8(std::uint8_t v) { bytes_.push_back(v); }
  void put_u32(std::uint32_t v) { put_array(std::span(&v, 1)); }
  void put_u64(std::uint64_t v) { put_array(std::span(&v, 1)); }

  /// Append every element of a contiguous array, little-endian, with
  /// one resize.
  template <std::ranges::contiguous_range R>
  void put_array(const R& values) {
    using T = std::remove_cv_t<std::ranges::range_value_t<R>>;
    const std::size_t n = std::ranges::size(values);
    const std::size_t at = bytes_.size();
    bytes_.resize(at + n * sizeof(T));
    detail::store_le(bytes_.data() + at, std::ranges::data(values), n);
  }

  const std::vector<std::uint8_t>& bytes() const { return bytes_; }
  std::vector<std::uint8_t> take() { return std::move(bytes_); }

private:
  std::vector<std::uint8_t> bytes_;
};

/// Bounds-checked little-endian cursor. A read past the end sets the
/// sticky fail flag and returns zero; callers check failed() once per
/// section instead of wrapping every take in an Expected.
class ByteReader {
public:
  explicit ByteReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint8_t take_u8() { return take_one<std::uint8_t>(); }
  std::uint32_t take_u32() { return take_one<std::uint32_t>(); }
  std::uint64_t take_u64() { return take_one<std::uint64_t>(); }

  /// True when `count` elements of `bytes_per_element` bytes fit in
  /// the bytes left. Check every count read from a file with this
  /// before sizing anything by it.
  bool count_fits(std::uint64_t count, std::size_t bytes_per_element) const {
    return bytes_per_element == 0 || count <= remaining() / bytes_per_element;
  }

  /// Read `count` little-endian elements into `out`, resized to
  /// `count`. A count that does not fit the bytes left sets the sticky
  /// fail flag and allocates nothing. Returns !failed().
  template <typename T>
  bool take_array(std::uint64_t count, std::vector<T>& out) {
    if (failed_ || !count_fits(count, sizeof(T))) {
      fail();
      return false;
    }
    out.resize(std::size_t(count));
    detail::load_le(out.data(), bytes_.data() + pos_, out.size());
    pos_ += out.size() * sizeof(T);
    return true;
  }

  bool failed() const { return failed_; }
  std::size_t remaining() const { return bytes_.size() - pos_; }

private:
  template <typename T>
  T take_one() {
    T v{};
    if (failed_ || remaining() < sizeof v) {
      fail();
      return v;
    }
    detail::load_le(&v, bytes_.data() + pos_, 1);
    pos_ += sizeof v;
    return v;
  }

  void fail() {
    failed_ = true;
    pos_ = bytes_.size();
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

/// Start a file: the 4-byte magic, then the u32 version.
ByteWriter start_file(const char (&magic)[4], std::uint32_t version);

/// Seal a file: append the little-endian FNV-1a of every byte written
/// so far.
void seal_file(ByteWriter& w);

/// Check a whole file's frame — size floor, magic, version, checksum,
/// in that order — and return a reader over its payload. Any failure is
/// an Error carrying `corrupt` (CorruptCheckpoint for checkpoints); a
/// version mismatch names the version found and the version expected.
Expected<ByteReader> open_file(std::span<const std::uint8_t> bytes,
                               const char (&magic)[4], std::uint32_t version,
                               ErrorCode corrupt);

/// Read a whole file. Io when the file cannot be opened or read.
Expected<std::vector<std::uint8_t>> read_file(const std::string& path);

} // namespace fdbist::common
