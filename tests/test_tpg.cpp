#include <cmath>
#include <cstdint>
#include <set>
#include <type_traits>
#include <gtest/gtest.h>

#include "dsp/spectrum.hpp"
#include "dsp/stats.hpp"
#include "tpg/generators.hpp"
#include "tpg/lfsr.hpp"

namespace fdbist::tpg {
namespace {

// ------------------------------------------------------------- LFSR core

// gtest names each case after the bytes of its parameter (there is no
// printer for this struct), so the struct must have no padding: padding
// bytes are never initialised and would give a case a different ctest
// name on every build. Hence an int-sized LFSR type rather than a bool.
enum class LfsrType : std::int32_t { Type1, Type2 };

struct LfsrCase {
  int width;
  LfsrType type;
  ShiftDirection dir;
};
static_assert(std::has_unique_object_representations_v<LfsrCase>);

class LfsrMaximalLength : public ::testing::TestWithParam<LfsrCase> {};

TEST_P(LfsrMaximalLength, PeriodIsTwoToNMinusOne) {
  const auto [width, type, dir] = GetParam();
  const std::uint64_t period = (std::uint64_t{1} << width) - 1;
  std::set<std::uint32_t> seen;
  if (type == LfsrType::Type2) {
    Lfsr2 l(width, 1, dir);
    for (std::uint64_t i = 0; i < period; ++i) {
      l.next_raw();
      EXPECT_TRUE(seen.insert(l.state()).second) << "repeat at " << i;
    }
    l.next_raw();
    EXPECT_EQ(seen.count(l.state()), 1u); // back inside the cycle
  } else {
    Lfsr1 l(width, 1, dir);
    for (std::uint64_t i = 0; i < period; ++i) {
      l.next_raw();
      EXPECT_TRUE(seen.insert(l.state()).second) << "repeat at " << i;
    }
  }
  EXPECT_EQ(seen.size(), period);
  EXPECT_EQ(seen.count(0u), 0u); // all-zero state never appears
}

INSTANTIATE_TEST_SUITE_P(
    Cases, LfsrMaximalLength,
    ::testing::Values(LfsrCase{2, LfsrType::Type1, ShiftDirection::LsbToMsb},
                      LfsrCase{3, LfsrType::Type1, ShiftDirection::MsbToLsb},
                      LfsrCase{8, LfsrType::Type1, ShiftDirection::LsbToMsb},
                      LfsrCase{8, LfsrType::Type1, ShiftDirection::MsbToLsb},
                      LfsrCase{12, LfsrType::Type1, ShiftDirection::LsbToMsb},
                      LfsrCase{12, LfsrType::Type1, ShiftDirection::MsbToLsb},
                      LfsrCase{16, LfsrType::Type1, ShiftDirection::LsbToMsb},
                      LfsrCase{2, LfsrType::Type2, ShiftDirection::LsbToMsb},
                      LfsrCase{8, LfsrType::Type2, ShiftDirection::LsbToMsb},
                      LfsrCase{8, LfsrType::Type2, ShiftDirection::MsbToLsb},
                      LfsrCase{12, LfsrType::Type2, ShiftDirection::LsbToMsb},
                      LfsrCase{12, LfsrType::Type2, ShiftDirection::MsbToLsb},
                      LfsrCase{16, LfsrType::Type2, ShiftDirection::LsbToMsb}));

TEST(Lfsr, PaperPolynomial12B9MaximalLength) {
  // The paper's Type 2 example: polynomial 12B9h, LSB-to-MSB.
  const auto poly = Polynomial::from_hex_with_top(0x12B9);
  EXPECT_EQ(poly.degree, 12);
  Lfsr2 l(poly, 1, ShiftDirection::LsbToMsb);
  std::set<std::uint32_t> seen;
  for (int i = 0; i < 4095; ++i) {
    l.next_raw();
    ASSERT_TRUE(seen.insert(l.state()).second);
  }
}

TEST(Lfsr, WordVarianceIsOneThird) {
  // Maximal-length word output is uniform over nonzero states.
  Lfsr1 l(12, 1);
  const auto x = l.generate_real(4095);
  EXPECT_NEAR(dsp::variance(x), 1.0 / 3.0, 0.01);
  EXPECT_NEAR(dsp::mean(x), 0.0, 0.01);
}

TEST(Lfsr, BitStreamBalanced) {
  Lfsr1 l(12, 1);
  int ones = 0;
  constexpr int n = 4095;
  for (int i = 0; i < n; ++i) ones += l.next_bit();
  EXPECT_NEAR(double(ones) / n, 0.5, 0.02);
}

TEST(Lfsr, ResetRestartsSequence) {
  Lfsr1 l(12, 77);
  const auto a = l.generate_raw(50);
  l.reset();
  const auto b = l.generate_raw(50);
  EXPECT_EQ(a, b);
}

TEST(Lfsr, RejectsZeroSeedAndBadDegree) {
  EXPECT_THROW(Lfsr1(12, 0), precondition_error);
  EXPECT_THROW(Lfsr1(1, 1), precondition_error);
  EXPECT_THROW(Lfsr1(32, 1), precondition_error);
  EXPECT_THROW(Lfsr2(12, 0), precondition_error);
}

TEST(Polynomial, FromHexValidation) {
  const auto p = Polynomial::from_hex_with_top(0x12B9);
  EXPECT_EQ(p.low_terms, 0x2B9u);
  EXPECT_THROW(Polynomial::from_hex_with_top(0x1000),
               precondition_error); // no x^0 term
}

// ------------------------------------------------------ derived sources

TEST(Decorrelated, InvertsUpperBitsWhenLsbSet) {
  DecorrelatedLfsr d(12, 1);
  Lfsr1 raw(12, 1);
  for (int i = 0; i < 2000; ++i) {
    const auto w = static_cast<std::uint64_t>(raw.next_raw()) & 0xFFF;
    const auto expect =
        (w & 1u) ? (w ^ 0xFFEu) : w;
    EXPECT_EQ(static_cast<std::uint64_t>(d.next_raw()) & 0xFFF, expect);
  }
}

TEST(Decorrelated, KeepsVarianceAndZeroMean) {
  DecorrelatedLfsr d(12, 1);
  const auto x = d.generate_real(8190);
  EXPECT_NEAR(dsp::variance(x), 1.0 / 3.0, 0.01);
  EXPECT_NEAR(dsp::mean(x), 0.0, 0.01);
}

TEST(Decorrelated, ReducesSuccessiveWordCorrelation) {
  // The paper: Type 1 words are strongly correlated; the decorrelator
  // breaks the linear dependence.
  auto corr1 = [] {
    Lfsr1 l(12, 1);
    const auto x = l.generate_real(8190);
    return std::abs(dsp::autocorrelation(x, 1));
  }();
  auto corrd = [] {
    DecorrelatedLfsr d(12, 1);
    const auto x = d.generate_real(8190);
    return std::abs(dsp::autocorrelation(x, 1));
  }();
  EXPECT_GT(corr1, 0.2);
  EXPECT_LT(corrd, 0.08);
}

TEST(MaxVariance, OnlyRailValues) {
  MaxVarianceLfsr m(12, 1);
  const auto fmt = m.format();
  bool saw_min = false;
  bool saw_max = false;
  for (int i = 0; i < 200; ++i) {
    const auto v = m.next_raw();
    EXPECT_TRUE(v == fmt.raw_min() || v == fmt.raw_max());
    saw_min |= v == fmt.raw_min();
    saw_max |= v == fmt.raw_max();
  }
  EXPECT_TRUE(saw_min);
  EXPECT_TRUE(saw_max);
}

TEST(MaxVariance, VarianceNearOne) {
  MaxVarianceLfsr m(12, 1);
  const auto x = m.generate_real(8000);
  EXPECT_NEAR(dsp::variance(x), 1.0, 0.01);
}

TEST(Ramp, CountsAndWraps) {
  RampGenerator r(4);
  std::vector<std::int64_t> got;
  for (int i = 0; i < 20; ++i) got.push_back(r.next_raw());
  EXPECT_EQ(got[0], 0);
  EXPECT_EQ(got[7], 7);
  EXPECT_EQ(got[8], -8); // two's-complement wrap: sawtooth
  EXPECT_EQ(got[15], -1);
  EXPECT_EQ(got[16], 0);
}

TEST(Ramp, CustomStartAndStep) {
  RampGenerator r(8, -100, 3);
  EXPECT_EQ(r.next_raw(), -100);
  EXPECT_EQ(r.next_raw(), -97);
  r.reset();
  EXPECT_EQ(r.next_raw(), -100);
}

TEST(Ramp, PowerConcentratedAtLowFrequency) {
  RampGenerator r(12);
  const auto x = r.generate_real(1 << 14);
  const auto psd = dsp::welch_psd(x);
  double low = 0.0;
  double high = 0.0;
  for (std::size_t k = 1; k < psd.size() / 8; ++k) low += psd[k];
  for (std::size_t k = psd.size() / 2; k < psd.size(); ++k) high += psd[k];
  EXPECT_GT(low, 30.0 * high); // paper: "almost all power at very low f"
}

TEST(Switched, ChangesModeAtBoundary) {
  SwitchedLfsr s(12, 5, 1);
  const auto fmt = s.format();
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(s.in_max_variance_mode());
    const auto v = s.next_raw();
    // Normal mode words are rarely exactly at the rails.
    (void)v;
  }
  EXPECT_TRUE(s.in_max_variance_mode());
  for (int i = 0; i < 20; ++i) {
    const auto v = s.next_raw();
    EXPECT_TRUE(v == fmt.raw_min() || v == fmt.raw_max());
  }
  s.reset();
  EXPECT_FALSE(s.in_max_variance_mode());
}

TEST(Sine, AmplitudeAndPeriod) {
  SineSource s(12, 0.8, 1.0 / 64.0);
  const auto x = s.generate_real(256);
  double mx = 0.0;
  for (const double v : x) mx = std::max(mx, std::abs(v));
  EXPECT_NEAR(mx, 0.8, 0.01);
  // Period 64: x[n] ~ x[n+64].
  for (int n = 0; n < 64; ++n) EXPECT_NEAR(x[n], x[n + 64], 2e-3);
}

TEST(Sine, RejectsBadAmplitude) {
  EXPECT_THROW(SineSource(12, 1.5, 0.1), precondition_error);
}

TEST(White, UniformAndIndependent) {
  WhiteUniformSource w(12, 9);
  const auto x = w.generate_real(20000);
  EXPECT_NEAR(dsp::variance(x), 1.0 / 3.0, 0.01);
  EXPECT_NEAR(std::abs(dsp::autocorrelation(x, 1)), 0.0, 0.02);
  w.reset();
  EXPECT_EQ(w.next_raw(), WhiteUniformSource(12, 9).next_raw());
}

// ---------------------------------------------------------- factory

TEST(Factory, NamesMatchPaper) {
  EXPECT_STREQ(kind_name(GeneratorKind::Lfsr1), "LFSR-1");
  EXPECT_STREQ(kind_name(GeneratorKind::LfsrD), "LFSR-D");
  EXPECT_STREQ(kind_name(GeneratorKind::LfsrM), "LFSR-M");
  EXPECT_STREQ(kind_name(GeneratorKind::Ramp), "Ramp");
  for (const auto k :
       {GeneratorKind::Lfsr1, GeneratorKind::Lfsr2, GeneratorKind::LfsrD,
        GeneratorKind::LfsrM, GeneratorKind::Ramp}) {
    auto g = make_generator(k, 12);
    ASSERT_NE(g, nullptr);
    EXPECT_EQ(g->width(), 12);
    EXPECT_EQ(g->name(), kind_name(k));
    // All outputs must fit the advertised format.
    for (int i = 0; i < 100; ++i)
      EXPECT_TRUE(fx::representable(g->next_raw(), g->format()));
  }
}

TEST(Factory, SpectraMatchPaperFigure4Shapes) {
  // LFSR-1: low-frequency rolloff. LFSR-D / LFSR-M: flat. Ramp: DC spike.
  auto psd_of = [](GeneratorKind k) {
    auto g = make_generator(k, 12);
    const auto x = g->generate_real(1 << 14);
    return dsp::welch_psd(x);
  };
  const auto p1 = psd_of(GeneratorKind::Lfsr1);
  const auto pd = psd_of(GeneratorKind::LfsrD);
  const auto pm = psd_of(GeneratorKind::LfsrM);

  auto band = [](const std::vector<double>& p, std::size_t a,
                 std::size_t b) {
    double s = 0.0;
    for (std::size_t k = a; k < b; ++k) s += p[k];
    return s / double(b - a);
  };
  const std::size_t n = p1.size();
  // LFSR-1's lowest band is far below its top band.
  EXPECT_LT(band(p1, 1, n / 16), 0.25 * band(p1, n / 2, n));
  // LFSR-D and LFSR-M are flat within a factor ~2.
  EXPECT_GT(band(pd, 1, n / 16), 0.5 * band(pd, n / 2, n));
  EXPECT_LT(band(pd, 1, n / 16), 2.0 * band(pd, n / 2, n));
  EXPECT_GT(band(pm, 1, n / 16), 0.5 * band(pm, n / 2, n));
  // LFSR-M carries ~3x the total power of LFSR-D (variance 1 vs 1/3).
  EXPECT_NEAR(band(pm, 1, n - 1) / band(pd, 1, n - 1), 3.0, 0.5);
}

} // namespace
} // namespace fdbist::tpg
