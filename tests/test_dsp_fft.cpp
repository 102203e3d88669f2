#include <cmath>
#include <numbers>
#include <gtest/gtest.h>

#include "common/check.hpp"
#include "common/xoshiro.hpp"
#include "dsp/fft.hpp"

namespace fdbist::dsp {
namespace {

constexpr double kTol = 1e-9;

std::vector<cplx> random_signal(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<cplx> x(n);
  for (auto& v : x) v = cplx{rng.uniform() - 0.5, rng.uniform() - 0.5};
  return x;
}

TEST(Fft, ImpulseIsFlat) {
  std::vector<cplx> x(16, cplx{0, 0});
  x[0] = cplx{1, 0};
  const auto X = fft(x);
  for (const auto& v : X) {
    EXPECT_NEAR(v.real(), 1.0, kTol);
    EXPECT_NEAR(v.imag(), 0.0, kTol);
  }
}

TEST(Fft, DcConcentratesInBinZero) {
  std::vector<cplx> x(32, cplx{1, 0});
  const auto X = fft(x);
  EXPECT_NEAR(X[0].real(), 32.0, kTol);
  for (std::size_t k = 1; k < X.size(); ++k)
    EXPECT_NEAR(std::abs(X[k]), 0.0, 1e-8);
}

TEST(Fft, SinusoidHitsItsBin) {
  constexpr std::size_t n = 64;
  constexpr int bin = 5;
  std::vector<cplx> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double ang = 2.0 * std::numbers::pi * bin * double(i) / n;
    x[i] = cplx{std::cos(ang), 0.0};
  }
  const auto X = fft(x);
  EXPECT_NEAR(std::abs(X[bin]), n / 2.0, 1e-7);
  EXPECT_NEAR(std::abs(X[n - bin]), n / 2.0, 1e-7);
  for (std::size_t k = 0; k < n; ++k) {
    if (k == bin || k == n - bin) continue;
    EXPECT_NEAR(std::abs(X[k]), 0.0, 1e-7) << "bin " << k;
  }
}

class FftRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftRoundTrip, IfftInvertsFft) {
  const std::size_t n = GetParam();
  const auto x = random_signal(n, n);
  const auto back = ifft(fft(x));
  ASSERT_EQ(back.size(), n);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(std::abs(back[i] - x[i]), 0.0, 1e-8) << "i=" << i;
}

TEST_P(FftRoundTrip, ParsevalHolds) {
  const std::size_t n = GetParam();
  const auto x = random_signal(n, 31 + n);
  const auto X = fft(x);
  double et = 0.0;
  double ef = 0.0;
  for (const auto& v : x) et += std::norm(v);
  for (const auto& v : X) ef += std::norm(v);
  EXPECT_NEAR(ef, et * double(n), 1e-6 * et * double(n));
}

INSTANTIATE_TEST_SUITE_P(Lengths, FftRoundTrip,
                         ::testing::Values(2, 4, 8, 64, 256, 1024,
                                           // non powers of two (DFT path)
                                           3, 5, 12, 60, 100));

TEST(Fft, Pow2MatchesDirectDft) {
  // The fast path and the O(n^2) fallback must agree.
  const auto x = random_signal(16, 99);
  auto padded = x;
  padded.push_back(cplx{0, 0}); // length 17: direct DFT
  const auto fast = fft(x);
  // Compute DFT of the 16-sample signal manually.
  for (std::size_t k = 0; k < 16; ++k) {
    cplx acc{0, 0};
    for (std::size_t i = 0; i < 16; ++i) {
      const double ang = -2.0 * std::numbers::pi * double(k * i) / 16.0;
      acc += x[i] * cplx{std::cos(ang), std::sin(ang)};
    }
    EXPECT_NEAR(std::abs(fast[k] - acc), 0.0, 1e-8);
  }
}

TEST(Fft, Linearity) {
  const auto a = random_signal(64, 1);
  const auto b = random_signal(64, 2);
  std::vector<cplx> sum(64);
  for (std::size_t i = 0; i < 64; ++i) sum[i] = 2.0 * a[i] + 3.0 * b[i];
  const auto Fa = fft(a);
  const auto Fb = fft(b);
  const auto Fs = fft(sum);
  for (std::size_t k = 0; k < 64; ++k)
    EXPECT_NEAR(std::abs(Fs[k] - (2.0 * Fa[k] + 3.0 * Fb[k])), 0.0, 1e-8);
}

TEST(Fft, EmptyInputIsNoop) {
  EXPECT_TRUE(fft({}).empty());
  EXPECT_TRUE(ifft({}).empty());
}

TEST(Fft, RejectsNonPow2Inplace) {
  std::vector<cplx> x(12);
  EXPECT_THROW(fft_pow2_inplace(x, false), precondition_error);
}

} // namespace
} // namespace fdbist::dsp
