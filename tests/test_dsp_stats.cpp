#include <cmath>
#include <numbers>
#include <gtest/gtest.h>

#include "common/check.hpp"
#include "common/xoshiro.hpp"
#include "dsp/spectrum.hpp"
#include "dsp/stats.hpp"

namespace fdbist::dsp {
namespace {

std::vector<double> white(std::size_t n, double amp, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<double> x(n);
  for (auto& v : x) v = amp * (2.0 * rng.uniform() - 1.0);
  return x;
}

TEST(Stats, MeanVarianceKnown) {
  const std::vector<double> x{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(x), 2.5);
  EXPECT_DOUBLE_EQ(variance(x), 1.25);
  EXPECT_DOUBLE_EQ(std_dev(x), std::sqrt(1.25));
}

TEST(Stats, EmptySignalIsZero) {
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_DOUBLE_EQ(variance({}), 0.0);
}

TEST(Stats, UniformVarianceIsThird) {
  // Uniform on [-1, 1): variance = 1/3 (the paper's LFSR word variance).
  const auto x = white(200000, 1.0, 5);
  EXPECT_NEAR(variance(x), 1.0 / 3.0, 0.01);
  EXPECT_NEAR(mean(x), 0.0, 0.01);
}

TEST(Stats, CorrelationSelfAndAnti) {
  const std::vector<double> x{1.0, -2.0, 3.0, 0.5};
  std::vector<double> y = x;
  EXPECT_NEAR(correlation(x, y), 1.0, 1e-12);
  for (auto& v : y) v = -v;
  EXPECT_NEAR(correlation(x, y), -1.0, 1e-12);
}

TEST(Stats, CorrelationOfIndependentNearZero) {
  EXPECT_NEAR(correlation(white(50000, 1.0, 1), white(50000, 1.0, 2)), 0.0,
              0.02);
}

TEST(Stats, CorrelationRejectsMismatch) {
  EXPECT_THROW(correlation({1.0}, {1.0, 2.0}), precondition_error);
  EXPECT_THROW(correlation({}, {}), precondition_error);
}

TEST(Stats, AutocorrelationLagZeroIsOne) {
  const auto x = white(1000, 1.0, 3);
  EXPECT_DOUBLE_EQ(autocorrelation(x, 0), 1.0);
}

TEST(Stats, AutocorrelationOfAlternatingSignal) {
  std::vector<double> x(100);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = (i % 2 == 0) ? 1.0 : -1.0;
  EXPECT_NEAR(autocorrelation(x, 1), -1.0, 0.05);
  EXPECT_NEAR(autocorrelation(x, 2), 1.0, 0.05);
}

TEST(Stats, AutocorrelationRejectsBigLag) {
  EXPECT_THROW(autocorrelation({1.0, 2.0}, 2), precondition_error);
}

TEST(Histogram, BinningAndDensity) {
  Histogram h(-1.0, 1.0, 4); // bins: [-1,-.5) [-.5,0) [0,.5) [.5,1)
  h.add(-0.9);
  h.add(-0.1);
  h.add(0.1);
  h.add(0.2);
  h.add(0.9);
  EXPECT_EQ(h.counts[0], 1u);
  EXPECT_EQ(h.counts[1], 1u);
  EXPECT_EQ(h.counts[2], 2u);
  EXPECT_EQ(h.counts[3], 1u);
  EXPECT_EQ(h.total, 5u);
  EXPECT_DOUBLE_EQ(h.bin_width(), 0.5);
  EXPECT_DOUBLE_EQ(h.bin_center(0), -0.75);
  EXPECT_DOUBLE_EQ(h.density(2), 2.0 / (5.0 * 0.5));
}

TEST(Histogram, OutOfRangeClampsToEdges) {
  Histogram h(-1.0, 1.0, 4);
  h.add(-5.0);
  h.add(5.0);
  EXPECT_EQ(h.counts[0], 1u);
  EXPECT_EQ(h.counts[3], 1u);
}

TEST(Welch, WhiteNoiseIsFlatAtTwiceVariance) {
  // One-sided PSD of white noise with variance v integrates to v, i.e. a
  // flat level of 2v over [0, 0.5].
  const auto x = white(1 << 16, 1.0, 11);
  const double v = variance(x);
  const auto psd = welch_psd(x);
  // Average away estimator noise, skipping the DC/Nyquist edge bins.
  double avg = 0.0;
  for (std::size_t k = 2; k + 2 < psd.size(); ++k) avg += psd[k];
  avg /= static_cast<double>(psd.size() - 4);
  EXPECT_NEAR(avg, 2.0 * v, 0.1 * v);
}

TEST(Welch, PsdIntegratesToPower) {
  const auto x = white(1 << 15, 0.7, 13);
  const auto psd = welch_psd(x);
  const double df = 1.0 / static_cast<double>(kWelchSegment);
  double power = 0.0;
  for (const double p : psd) power += p * df;
  EXPECT_NEAR(power, variance(x), 0.1 * variance(x));
}

TEST(Welch, SinePeaksAtItsFrequency) {
  constexpr double f0 = 0.125;
  std::vector<double> x(1 << 14);
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = std::sin(2.0 * std::numbers::pi * f0 * double(i));
  const auto psd = welch_psd(x);
  const auto freqs = welch_frequencies();
  std::size_t peak = 0;
  for (std::size_t k = 1; k < psd.size(); ++k)
    if (psd[k] > psd[peak]) peak = k;
  EXPECT_NEAR(freqs[peak], f0, 1.0 / double(kWelchSegment));
}

TEST(Welch, RejectsBadOptions) {
  const auto x = white(1024, 1.0, 17);
  EXPECT_THROW(welch_psd(x, 100), precondition_error); // not a power of two
  EXPECT_THROW(welch_psd(x, 4), precondition_error);   // shorter than 8
  EXPECT_THROW(welch_psd(white(100, 1.0, 1), 128), precondition_error);
}

TEST(Welch, FrequencyGrid) {
  const auto f = welch_frequencies(64);
  ASSERT_EQ(f.size(), 33u);
  EXPECT_DOUBLE_EQ(f.front(), 0.0);
  EXPECT_DOUBLE_EQ(f.back(), 0.5);
}

TEST(ToDb, ClampsAtFloor) {
  const auto db = to_db({1.0, 0.1, 0.0}, -60.0);
  EXPECT_NEAR(db[0], 0.0, 1e-12);
  EXPECT_NEAR(db[1], -10.0, 1e-9);
  EXPECT_NEAR(db[2], -60.0, 1e-9);
}

} // namespace
} // namespace fdbist::dsp
