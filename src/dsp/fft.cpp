#include "dsp/fft.hpp"

#include <cmath>
#include <numbers>

#include "common/bits.hpp"
#include "common/check.hpp"

namespace fdbist::dsp {

namespace {

bool is_pow2(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

std::vector<cplx> dft_direct(const std::vector<cplx>& x, bool inverse) {
  const std::size_t n = x.size();
  std::vector<cplx> out(n);
  const double sign = inverse ? 1.0 : -1.0;
  const double w0 = sign * 2.0 * std::numbers::pi / static_cast<double>(n);
  for (std::size_t k = 0; k < n; ++k) {
    cplx acc{0.0, 0.0};
    for (std::size_t i = 0; i < n; ++i) {
      const double ang = w0 * static_cast<double>(k) * static_cast<double>(i);
      acc += x[i] * cplx{std::cos(ang), std::sin(ang)};
    }
    out[k] = acc;
  }
  return out;
}

} // namespace

void fft_pow2_inplace(std::vector<cplx>& x, bool inverse) {
  const std::size_t n = x.size();
  FDBIST_REQUIRE(is_pow2(n), "FFT length must be a power of two");
  // Bit-reversal permutation.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(x[i], x[j]);
  }
  const double sign = inverse ? 1.0 : -1.0;
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double ang =
        sign * 2.0 * std::numbers::pi / static_cast<double>(len);
    const cplx wlen{std::cos(ang), std::sin(ang)};
    for (std::size_t i = 0; i < n; i += len) {
      cplx w{1.0, 0.0};
      for (std::size_t k = 0; k < len / 2; ++k) {
        const cplx u = x[i + k];
        const cplx v = x[i + k + len / 2] * w;
        x[i + k] = u + v;
        x[i + k + len / 2] = u - v;
        w *= wlen;
      }
    }
  }
}

std::vector<cplx> fft(std::vector<cplx> x) {
  if (x.empty()) return x;
  if (is_pow2(x.size())) {
    fft_pow2_inplace(x, /*inverse=*/false);
    return x;
  }
  return dft_direct(x, /*inverse=*/false);
}

std::vector<cplx> ifft(std::vector<cplx> x) {
  if (x.empty()) return x;
  if (is_pow2(x.size())) {
    fft_pow2_inplace(x, /*inverse=*/true);
  } else {
    x = dft_direct(x, /*inverse=*/true);
  }
  const double inv = 1.0 / static_cast<double>(x.size());
  for (auto& v : x) v *= inv;
  return x;
}

} // namespace fdbist::dsp
