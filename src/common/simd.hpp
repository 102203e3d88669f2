// Portable wide-word abstraction for bit-parallel simulation.
//
// simd_word<Words> is a fixed array of 64-bit limbs with bitwise
// semantics — the value type every lane-parallel kernel in the repo is
// written against. Three widths are instantiated: 1 limb (the scalar
// baseline, bit-identical to the historical std::uint64_t kernel), 4
// limbs (256 lanes, AVX2) and 8 limbs (512 lanes, AVX-512F).
//
// The ISA story deliberately avoids the classic one-definition trap of
// compiling the same inline function under different -m flags: every
// simd_word operation is force-inlined, and the intrinsic bodies are
// compiled only where the TU's target already enables them (guarded by
// __AVX2__/__AVX512F__). Wide instantiations live exclusively in the
// per-ISA kernel TUs (src/fault/kernel_avx2.cpp, kernel_avx512.cpp),
// which are the only files built with -mavx2/-mavx512f; everything else
// in the repo only ever instantiates simd_word<1>. Runtime dispatch
// picks a backend once per simulate_faults call (fault/kernel.hpp), so
// an AVX-512 binary still runs correctly on an AVX2-only machine.
//
// Backend selection honours, in priority order: an explicit non-Auto
// request from the caller, the FDBIST_SIMD environment variable
// (scalar|avx2|avx512|auto), then the widest backend both compiled in
// and supported by the CPU.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

#if defined(__x86_64__) || defined(_M_X64) || defined(__i386__)
#include <immintrin.h>
#endif

#if defined(__GNUC__) || defined(__clang__)
#define FDBIST_ALWAYS_INLINE inline __attribute__((always_inline))
#else
#define FDBIST_ALWAYS_INLINE inline
#endif

namespace fdbist::common {

template <int Words>
struct alignas(Words * sizeof(std::uint64_t)) simd_word {
  static_assert(Words == 1 || Words == 4 || Words == 8,
                "supported widths: 64 (scalar), 256 (AVX2), 512 (AVX-512)");
  static constexpr int kWords = Words;
  static constexpr int kLanes = Words * 64;

  std::uint64_t w[Words];

  static FDBIST_ALWAYS_INLINE simd_word zero() {
    simd_word r;
    for (int i = 0; i < Words; ++i) r.w[i] = 0;
    return r;
  }

  static FDBIST_ALWAYS_INLINE simd_word ones() {
    simd_word r;
    for (int i = 0; i < Words; ++i) r.w[i] = ~std::uint64_t{0};
    return r;
  }

  /// Every limb = x.
  static FDBIST_ALWAYS_INLINE simd_word splat(std::uint64_t x) {
#if defined(__AVX512F__)
    if constexpr (Words == 8) {
      simd_word r;
      _mm512_storeu_si512(r.w, _mm512_set1_epi64(static_cast<long long>(x)));
      return r;
    }
#endif
#if defined(__AVX2__)
    if constexpr (Words == 4) {
      simd_word r;
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(r.w),
                          _mm256_set1_epi64x(static_cast<long long>(x)));
      return r;
    }
#endif
    simd_word r;
    for (int i = 0; i < Words; ++i) r.w[i] = x;
    return r;
  }

  /// All lanes = bit (the broadcast the clock loop lives on). Branch
  /// free: trace bits are data, not a predictable pattern.
  static FDBIST_ALWAYS_INLINE simd_word fill(bool bit) {
    return splat(std::uint64_t{0} - std::uint64_t{bit});
  }

  /// Exactly one lane set.
  static FDBIST_ALWAYS_INLINE simd_word lane_bit(int lane) {
    simd_word r = zero();
    r.w[lane >> 6] = std::uint64_t{1} << (lane & 63);
    return r;
  }

  /// Low limb = x, upper limbs zero (uint64 compatibility shim).
  static FDBIST_ALWAYS_INLINE simd_word from_word0(std::uint64_t x) {
    simd_word r = zero();
    r.w[0] = x;
    return r;
  }

  std::uint64_t word(int i) const { return w[i]; }

  bool lane(int l) const { return (w[l >> 6] >> (l & 63)) & 1u; }

  void set_lane(int l, bool v) {
    const std::uint64_t bit = std::uint64_t{1} << (l & 63);
    if (v)
      w[l >> 6] |= bit;
    else
      w[l >> 6] &= ~bit;
  }

  bool any() const {
    std::uint64_t acc = 0;
    for (int i = 0; i < Words; ++i) acc |= w[i];
    return acc != 0;
  }

  bool none() const { return !any(); }

  int popcount() const {
    int n = 0;
    for (int i = 0; i < Words; ++i) n += std::popcount(w[i]);
    return n;
  }

  /// Index of the highest set lane, -1 when empty.
  int highest_lane() const {
    for (int i = Words - 1; i >= 0; --i)
      if (w[i] != 0) return i * 64 + 63 - std::countl_zero(w[i]);
    return -1;
  }

  friend FDBIST_ALWAYS_INLINE simd_word operator~(const simd_word& x) {
#if defined(__AVX512F__)
    if constexpr (Words == 8) {
      simd_word r;
      _mm512_storeu_si512(r.w, _mm512_xor_si512(_mm512_loadu_si512(x.w),
                                                _mm512_set1_epi64(-1)));
      return r;
    }
#endif
#if defined(__AVX2__)
    if constexpr (Words == 4) {
      simd_word r;
      const __m256i v =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x.w));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(r.w),
                          _mm256_xor_si256(v, _mm256_set1_epi64x(-1)));
      return r;
    }
#endif
    simd_word r;
    for (int i = 0; i < Words; ++i) r.w[i] = ~x.w[i];
    return r;
  }

  friend FDBIST_ALWAYS_INLINE simd_word operator&(const simd_word& x,
                                                  const simd_word& y) {
#if defined(__AVX512F__)
    if constexpr (Words == 8) {
      simd_word r;
      _mm512_storeu_si512(r.w, _mm512_and_si512(_mm512_loadu_si512(x.w),
                                                _mm512_loadu_si512(y.w)));
      return r;
    }
#endif
#if defined(__AVX2__)
    if constexpr (Words == 4) {
      simd_word r;
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(r.w),
          _mm256_and_si256(
              _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x.w)),
              _mm256_loadu_si256(reinterpret_cast<const __m256i*>(y.w))));
      return r;
    }
#endif
    simd_word r;
    for (int i = 0; i < Words; ++i) r.w[i] = x.w[i] & y.w[i];
    return r;
  }

  friend FDBIST_ALWAYS_INLINE simd_word operator|(const simd_word& x,
                                                  const simd_word& y) {
#if defined(__AVX512F__)
    if constexpr (Words == 8) {
      simd_word r;
      _mm512_storeu_si512(r.w, _mm512_or_si512(_mm512_loadu_si512(x.w),
                                               _mm512_loadu_si512(y.w)));
      return r;
    }
#endif
#if defined(__AVX2__)
    if constexpr (Words == 4) {
      simd_word r;
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(r.w),
          _mm256_or_si256(
              _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x.w)),
              _mm256_loadu_si256(reinterpret_cast<const __m256i*>(y.w))));
      return r;
    }
#endif
    simd_word r;
    for (int i = 0; i < Words; ++i) r.w[i] = x.w[i] | y.w[i];
    return r;
  }

  friend FDBIST_ALWAYS_INLINE simd_word operator^(const simd_word& x,
                                                  const simd_word& y) {
#if defined(__AVX512F__)
    if constexpr (Words == 8) {
      simd_word r;
      _mm512_storeu_si512(r.w, _mm512_xor_si512(_mm512_loadu_si512(x.w),
                                                _mm512_loadu_si512(y.w)));
      return r;
    }
#endif
#if defined(__AVX2__)
    if constexpr (Words == 4) {
      simd_word r;
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(r.w),
          _mm256_xor_si256(
              _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x.w)),
              _mm256_loadu_si256(reinterpret_cast<const __m256i*>(y.w))));
      return r;
    }
#endif
    simd_word r;
    for (int i = 0; i < Words; ++i) r.w[i] = x.w[i] ^ y.w[i];
    return r;
  }

  FDBIST_ALWAYS_INLINE simd_word& operator&=(const simd_word& o) {
    return *this = *this & o;
  }
  FDBIST_ALWAYS_INLINE simd_word& operator|=(const simd_word& o) {
    return *this = *this | o;
  }
  FDBIST_ALWAYS_INLINE simd_word& operator^=(const simd_word& o) {
    return *this = *this ^ o;
  }

  friend bool operator==(const simd_word& x, const simd_word& y) {
    for (int i = 0; i < Words; ++i)
      if (x.w[i] != y.w[i]) return false;
    return true;
  }
  friend bool operator!=(const simd_word& x, const simd_word& y) {
    return !(x == y);
  }
};

/// Which SIMD backend a lane-parallel kernel runs on.
enum class SimdBackend : std::uint8_t {
  Auto,   ///< FDBIST_SIMD env override, else widest available
  Scalar, ///< 64 lanes, plain uint64 (always available)
  Avx2,   ///< 256 lanes
  Avx512, ///< 512 lanes (AVX-512F)
};

const char* simd_backend_name(SimdBackend b);

/// Lanes per word for a concrete backend (0 for Auto).
std::size_t simd_lane_count(SimdBackend b);

/// True when the running CPU can execute the backend (compile-time
/// availability of the kernel is a separate question answered by
/// fault::detail::kernel_available).
bool cpu_supports(SimdBackend b);

/// Parse a backend name ("scalar", "avx2", "avx512", "auto"); returns
/// false on anything else.
bool parse_simd_backend(const char* s, SimdBackend& out);

/// The FDBIST_SIMD environment override, Auto when unset. A malformed
/// value is a hard usage error (exit 2), mirroring FDBIST_TEST_SEED:
/// silently ignoring it would un-force the backend a CI job asked for.
SimdBackend simd_backend_from_env();

} // namespace fdbist::common
