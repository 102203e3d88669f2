// Shared FNV-1a hashing.
//
// The checkpoint fingerprints (fault/checkpoint.hpp) and the
// binary-file trailer (common/binfile.hpp) share these hash constants,
// so the two cannot drift apart.
#pragma once

#include <cstddef>
#include <cstdint>

namespace fdbist::common {

inline constexpr std::uint64_t kFnvSeed = 14695981039346656037ULL;

/// Incremental FNV-1a over a byte range, chaining from `h`.
std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n);

/// Hash one trivially-copyable value into the chain.
template <typename T>
std::uint64_t fnv1a_value(std::uint64_t h, const T& v) {
  return fnv1a(h, &v, sizeof v);
}

} // namespace fdbist::common
