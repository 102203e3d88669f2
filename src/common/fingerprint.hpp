// Shared FNV-1a hashing and native-endian record packing.
//
// The checkpoint writer (fault/checkpoint.cpp), the artifact container
// (gate/artifact.cpp) and the schedule-cache key share these hash
// constants, so no two formats can drift apart on them. The record
// packing helpers are native-endian by design — checkpoints are local
// resume artifacts, not interchange formats.
#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

namespace fdbist::common {

inline constexpr std::uint64_t kFnvSeed = 14695981039346656037ULL;

/// Incremental FNV-1a over a byte range, chaining from `h`.
std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n);

/// Hash one trivially-copyable value into the chain.
template <typename T>
std::uint64_t fnv1a_value(std::uint64_t h, const T& v) {
  return fnv1a(h, &v, sizeof v);
}

/// Append the native byte representation of `v` to `out`.
template <typename T>
void put_bytes(std::vector<std::uint8_t>& out, const T& v) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
  out.insert(out.end(), p, p + sizeof v);
}

/// Read a T at `offset`, advancing it. Caller guarantees bounds.
template <typename T>
T take_bytes(const std::vector<std::uint8_t>& in, std::size_t& offset) {
  T v;
  std::memcpy(&v, in.data() + offset, sizeof v);
  offset += sizeof v;
  return v;
}

} // namespace fdbist::common
