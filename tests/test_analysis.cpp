#include <cmath>
#include <gtest/gtest.h>

#include "analysis/compatibility.hpp"
#include "analysis/lfsr_model.hpp"
#include "analysis/variance.hpp"
#include "designs/registry.hpp"
#include "dsp/spectrum.hpp"
#include "dsp/stats.hpp"
#include "rtl/sim.hpp"
#include "tpg/generators.hpp"

namespace fdbist::analysis {
namespace {

// The reference designs are expensive-ish to construct; share them.
const rtl::FilterDesign& lp_design() {
  static const rtl::FilterDesign d = designs::make_design("LP");
  return d;
}

TEST(LfsrModel, ImpulseShape) {
  const auto g = lfsr1_impulse_model(12);
  ASSERT_EQ(g.size(), 12u);
  EXPECT_DOUBLE_EQ(g[0], -1.0);
  EXPECT_DOUBLE_EQ(g[1], 0.5);
  EXPECT_DOUBLE_EQ(g[11], std::ldexp(1.0, -11));
}

TEST(LfsrModel, VarianceMatchesWordVariance) {
  // The model must reproduce the LFSR word variance of ~1/3:
  // 0.25 * sum g^2 = 0.25 * (1 + 1/3 (1 - 4^-(N-1))) -> ~1/3.
  double energy = 0.0;
  for (const double v : lfsr1_impulse_model(12)) energy += v * v;
  EXPECT_NEAR(0.25 * energy, 1.0 / 3.0, 1e-3);
}

TEST(LfsrModel, SpectrumHasDcNullAndHighShelf) {
  const auto psd = lfsr1_power_spectrum(12, 257);
  // DC: g sums to -2^-11, nearly zero.
  EXPECT_LT(psd.front(), 1e-4);
  // High end approaches the autocorrelation peak level.
  EXPECT_GT(psd.back(), 0.4);
  // Monotone-ish rise: the first quarter is well below the last quarter.
  double low = 0.0;
  double high = 0.0;
  for (std::size_t k = 0; k < 64; ++k) low += psd[k];
  for (std::size_t k = 192; k < 256; ++k) high += psd[k];
  EXPECT_LT(low, 0.5 * high);
}

TEST(LfsrModel, SpectrumMatchesMeasuredLfsr) {
  // The analytic PSD must match a Welch estimate of a real Type 1 LFSR.
  tpg::Lfsr1 l(12, 1, tpg::ShiftDirection::MsbToLsb);
  const auto x = l.generate_real(1 << 15);
  const auto measured = dsp::welch_psd(x, 128);
  const auto analytic = lfsr1_power_spectrum(12, measured.size());
  // Compare band-averaged shapes (one-sided measured PSD carries 2x),
  // skipping the DC null and the Nyquist edge bin where the one-sided
  // doubling convention does not apply.
  for (std::size_t k = 8; k + 8 < measured.size(); k += 8) {
    double m = 0.0;
    double a = 0.0;
    for (std::size_t j = k - 4; j < k + 4; ++j) {
      m += measured[j];
      a += 2.0 * analytic[j];
    }
    EXPECT_NEAR(m / a, 1.0, 0.35) << "band " << k;
  }
}

// ------------------------------------------------------------- variance

TEST(Variance, WhitePredictionMatchesSimulation) {
  const auto& d = lp_design();
  const auto pred = predict_sigma_white(d, 1.0 / 3.0);
  tpg::WhiteUniformSource src(12, 21);
  const auto stim = src.generate_raw(6000);
  rtl::Simulator sim(d.graph);
  const auto tap20 = sim.run_probe(stim, d.tap_accumulators[20]);
  EXPECT_NEAR(dsp::std_dev(tap20), pred[std::size_t(d.tap_accumulators[20])],
              0.15 * pred[std::size_t(d.tap_accumulators[20])]);
}

TEST(Variance, Lfsr1PredictionMatchesSimulation) {
  // The paper's headline analysis: Eqn 1 with the LFSR model predicts
  // the attenuated tap-20 signal.
  const auto& d = lp_design();
  const auto pred = predict_sigma_lfsr1(d, 12);
  auto gen = tpg::make_generator(tpg::GeneratorKind::Lfsr1, 12);
  const auto stim = gen->generate_raw(4095);
  rtl::Simulator sim(d.graph);
  const auto tap20 = sim.run_probe(stim, d.tap_accumulators[20]);
  const double predicted = pred[std::size_t(d.tap_accumulators[20])];
  EXPECT_NEAR(dsp::std_dev(tap20), predicted, 0.35 * predicted);
}

TEST(Variance, Lfsr1PredictsAttenuationVsWhite) {
  // For the narrow lowpass, the LFSR-1 signal at tap 20 must be much
  // weaker than a same-variance white signal (paper: 3.4x).
  const auto& d = lp_design();
  const auto p1 = predict_sigma_lfsr1(d, 12);
  const auto pd = predict_sigma_white(d, 1.0 / 3.0);
  const auto n = std::size_t(d.tap_accumulators[20]);
  EXPECT_GT(pd[n], 2.0 * p1[n]);
}

TEST(Variance, AttenuationFinderFlagsLowpassUnderLfsr1) {
  const auto& d = lp_design();
  const auto p1 = predict_sigma_lfsr1(d, 12);
  const auto problems = find_attenuation_problems(d, p1, 0.125);
  EXPECT_FALSE(problems.empty());
  // Reports are sorted worst-first and carry usable bit estimates.
  for (std::size_t i = 1; i < problems.size(); ++i)
    EXPECT_LE(problems[i - 1].relative, problems[i].relative);
  EXPECT_GT(problems.front().untestable_upper_bits, 1);

  // With the decorrelated generator the picture must improve: strictly
  // fewer flagged adders.
  const auto pd = predict_sigma_white(d, 1.0 / 3.0);
  const auto fewer = find_attenuation_problems(d, pd, 0.125);
  EXPECT_LT(fewer.size(), problems.size());
}

// -------------------------------------------------------- compatibility

TEST(Compatibility, SymbolStrings) {
  EXPECT_STREQ(compatibility_symbol(Compatibility::Good), "+");
  EXPECT_STREQ(compatibility_symbol(Compatibility::Marginal), "±");
  EXPECT_STREQ(compatibility_symbol(Compatibility::Poor), "-");
}

TEST(Compatibility, FlatGeneratorHasUnitEfficiency) {
  tpg::WhiteUniformSource w(12, 5);
  const auto& d = lp_design();
  const auto r = rate_compatibility(w, d.quantized_impulse_response());
  EXPECT_NEAR(r.efficiency, 1.0, 0.25);
  EXPECT_EQ(r.rating, Compatibility::Good);
  EXPECT_NEAR(r.generator_power, 1.0 / 3.0, 0.05);
}

TEST(Compatibility, MatrixMatchesPaperTable3) {
  // Table 3 of the paper:
  //            LP   BP   HP
  //   LFSR-1   -    ±    +
  //   LFSR-2   ±    ±    +
  //   LFSR-D   +    +    +
  //   LFSR-M   +    +    +
  //   Ramp     +    -    -
  const std::vector<rtl::FilterDesign> designs = {
      designs::make_design("LP"), designs::make_design("BP"),
      designs::make_design("HP")};
  const auto rows = compatibility_matrix(designs);
  ASSERT_EQ(rows.size(), 5u);
  auto rating = [&](std::size_t r, std::size_t c) {
    return rows[r].per_design[c].rating;
  };
  // LFSR-1 row: poor on the narrow lowpass, fine on the highpass.
  EXPECT_EQ(rating(0, 0), Compatibility::Poor);
  EXPECT_NE(rating(0, 1), Compatibility::Poor);
  EXPECT_EQ(rating(0, 2), Compatibility::Good);
  // LFSR-2 row: marginal on LP (less rolloff than LFSR-1), good on HP.
  EXPECT_EQ(rating(1, 0), Compatibility::Marginal);
  EXPECT_EQ(rating(1, 2), Compatibility::Good);
  // LFSR-D and LFSR-M rows: all good.
  for (std::size_t c = 0; c < 3; ++c) {
    EXPECT_EQ(rating(2, c), Compatibility::Good) << c;
    EXPECT_EQ(rating(3, c), Compatibility::Good) << c;
  }
  // Ramp row: good on LP, poor on BP and HP.
  EXPECT_EQ(rating(4, 0), Compatibility::Good);
  EXPECT_EQ(rating(4, 1), Compatibility::Poor);
  EXPECT_EQ(rating(4, 2), Compatibility::Poor);
}

TEST(Compatibility, RecommendationAvoidsIncompatible) {
  const std::vector<rtl::FilterDesign> designs = {
      designs::make_design("LP"), designs::make_design("BP"),
      designs::make_design("HP")};
  // LP: LFSR-1 rates '-', LFSR-2 '±', so the cheapest '+' is LFSR-D.
  EXPECT_EQ(recommend_generator(designs[0]), tpg::GeneratorKind::LfsrD);
  // BP/HP: the plain Type 1 LFSR already rates '+' and is cheapest.
  EXPECT_EQ(recommend_generator(designs[1]), tpg::GeneratorKind::Lfsr1);
  EXPECT_EQ(recommend_generator(designs[2]), tpg::GeneratorKind::Lfsr1);
}

} // namespace
} // namespace fdbist::analysis
