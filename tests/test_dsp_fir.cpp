#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "dsp/convolution.hpp"
#include "dsp/fir_design.hpp"

namespace fdbist::dsp {
namespace {

double db(double mag) { return 20.0 * std::log10(std::max(mag, 1e-30)); }

TEST(FirDesign, LowpassPassesDcBlocksHigh) {
  const FirSpec spec{FilterKind::Lowpass, 61, 0.12, 0.0, 7.0};
  const auto h = design_fir(spec);
  EXPECT_NEAR(std::abs(freq_response(h, 0.0)), 1.0, 0.02);
  EXPECT_LT(db(std::abs(freq_response(h, 0.25))), -55.0);
  EXPECT_LT(db(std::abs(freq_response(h, 0.45))), -55.0);
}

TEST(FirDesign, HighpassPassesNyquistBlocksDc) {
  const FirSpec spec{FilterKind::Highpass, 61, 0.35, 0.0, 7.0};
  const auto h = design_fir(spec);
  EXPECT_NEAR(std::abs(freq_response(h, 0.5)), 1.0, 0.02);
  EXPECT_LT(db(std::abs(freq_response(h, 0.0))), -55.0);
  EXPECT_LT(db(std::abs(freq_response(h, 0.2))), -55.0);
}

TEST(FirDesign, BandpassPassesCenterBlocksEdges) {
  const FirSpec spec{FilterKind::Bandpass, 59, 0.2, 0.3, 7.0};
  const auto h = design_fir(spec);
  EXPECT_NEAR(std::abs(freq_response(h, 0.25)), 1.0, 0.02);
  EXPECT_LT(db(std::abs(freq_response(h, 0.05))), -50.0);
  EXPECT_LT(db(std::abs(freq_response(h, 0.45))), -50.0);
}

TEST(FirDesign, BandstopBlocksCenterPassesEdges) {
  const FirSpec spec{FilterKind::Bandstop, 61, 0.2, 0.3, 7.0};
  const auto h = design_fir(spec);
  EXPECT_LT(db(std::abs(freq_response(h, 0.25))), -50.0);
  EXPECT_NEAR(std::abs(freq_response(h, 0.02)), 1.0, 0.02);
  EXPECT_NEAR(std::abs(freq_response(h, 0.48)), 1.0, 0.02);
}

TEST(FirDesign, LinearPhaseSymmetry) {
  for (const auto kind :
       {FilterKind::Lowpass, FilterKind::Highpass, FilterKind::Bandpass}) {
    FirSpec spec{kind, 61, 0.2, 0.3, 6.0};
    const auto h = design_fir(spec);
    for (std::size_t i = 0; i < h.size() / 2; ++i)
      EXPECT_NEAR(h[i], h[h.size() - 1 - i], 1e-12);
  }
}

TEST(FirDesign, EvenLengthHighpassRejected) {
  // A type-II FIR is structurally zero at Nyquist.
  FirSpec spec{FilterKind::Highpass, 60, 0.4, 0.0, 6.0};
  EXPECT_THROW(design_fir(spec), precondition_error);
  spec.kind = FilterKind::Bandstop;
  EXPECT_THROW(design_fir(spec), precondition_error);
}

TEST(FirDesign, EvenLengthLowpassAccepted) {
  FirSpec spec{FilterKind::Lowpass, 60, 0.1, 0.0, 6.0};
  EXPECT_NO_THROW(design_fir(spec));
}

TEST(FirDesign, InvalidEdgesRejected) {
  EXPECT_THROW(design_fir({FilterKind::Lowpass, 31, 0.0, 0.0, 6.0}),
               precondition_error);
  EXPECT_THROW(design_fir({FilterKind::Lowpass, 31, 0.6, 0.0, 6.0}),
               precondition_error);
  EXPECT_THROW(design_fir({FilterKind::Bandpass, 31, 0.3, 0.2, 6.0}),
               precondition_error);
  EXPECT_THROW(design_fir({FilterKind::Lowpass, 2, 0.2, 0.0, 6.0}),
               precondition_error);
}

TEST(FirDesign, ValidateReportsBadSpecsAsInvalidArgument) {
  // The two CLI specs `design bandpass 60 0.3 0.1` and
  // `design highpass 60 0.3`: typed errors naming the rule, no throw.
  const auto inverted =
      validate_fir_spec({FilterKind::Bandpass, 60, 0.3, 0.1, 6.0});
  ASSERT_FALSE(inverted);
  EXPECT_EQ(inverted.error().code, ErrorCode::InvalidArgument);
  EXPECT_NE(inverted.error().message.find("f2"), std::string::npos);

  const auto even_hp =
      validate_fir_spec({FilterKind::Highpass, 60, 0.3, 0.0, 6.0});
  ASSERT_FALSE(even_hp);
  EXPECT_EQ(even_hp.error().code, ErrorCode::InvalidArgument);
  EXPECT_NE(even_hp.error().message.find("even-length"), std::string::npos);

  EXPECT_TRUE(validate_fir_spec({FilterKind::Bandpass, 60, 0.1, 0.3, 6.0}));
  EXPECT_TRUE(validate_fir_spec({FilterKind::Highpass, 61, 0.3, 0.0, 6.0}));
}

TEST(FirDesign, IdealResponsesSumCorrectly) {
  // highpass ideal = delta - lowpass ideal at the same cutoff.
  const FirSpec lp{FilterKind::Lowpass, 41, 0.23, 0.0, 0.0};
  const FirSpec hp{FilterKind::Highpass, 41, 0.23, 0.0, 0.0};
  const auto hl = ideal_impulse_response(lp);
  const auto hh = ideal_impulse_response(hp);
  for (std::size_t i = 0; i < hl.size(); ++i) {
    const double delta = i == 20 ? 1.0 : 0.0;
    EXPECT_NEAR(hl[i] + hh[i], delta, 1e-12);
  }
}

TEST(FreqResponse, MatchesDirectEvaluation) {
  const std::vector<double> h{0.5, 0.25, -0.125};
  // H(f) at f=0: sum of taps.
  EXPECT_NEAR(std::abs(freq_response(h, 0.0) - std::complex<double>(0.625, 0.0)),
              0.0, 1e-12);
  // At Nyquist: alternating sum.
  EXPECT_NEAR(std::abs(freq_response(h, 0.5) -
                       std::complex<double>(0.5 - 0.25 - 0.125, 0.0)),
              0.0, 1e-12);
}

TEST(Norms, L1AndEnergy) {
  const std::vector<double> h{0.5, -0.25, 0.25};
  EXPECT_DOUBLE_EQ(l1_norm(h), 1.0);
  EXPECT_DOUBLE_EQ(energy(h), 0.25 + 0.0625 + 0.0625);
}

TEST(Convolution, KnownProduct) {
  const std::vector<double> a{1.0, 2.0};
  const std::vector<double> b{3.0, 4.0, 5.0};
  const auto c = convolve(a, b);
  ASSERT_EQ(c.size(), 4u);
  EXPECT_DOUBLE_EQ(c[0], 3.0);
  EXPECT_DOUBLE_EQ(c[1], 10.0);
  EXPECT_DOUBLE_EQ(c[2], 13.0);
  EXPECT_DOUBLE_EQ(c[3], 10.0);
}

TEST(Convolution, IdentityAndEmpty) {
  const std::vector<double> a{1.5, -2.5, 3.5};
  const auto c = convolve(a, {1.0});
  ASSERT_EQ(c.size(), a.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(c[i], a[i]);
  EXPECT_TRUE(convolve(a, {}).empty());
}

TEST(Convolution, FrequencyDomainEquivalence) {
  // |FFT(a*b)| == |FFT(a)||FFT(b)| on a padded grid.
  const std::vector<double> a{1.0, 0.5, -0.25, 0.125};
  const std::vector<double> b{0.3, -0.7, 0.2};
  const auto c = convolve(a, b);
  for (double f : {0.0, 0.1, 0.23, 0.4, 0.5}) {
    const auto fa = freq_response(a, f);
    const auto fb = freq_response(b, f);
    const auto fc = freq_response(c, f);
    EXPECT_NEAR(std::abs(fc - fa * fb), 0.0, 1e-12) << "f=" << f;
  }
}

TEST(AutocorrelationSeq, SymmetricWithEnergyPeak) {
  const std::vector<double> h{1.0, -0.5, 0.25};
  const auto r = autocorrelation_sequence(h);
  ASSERT_EQ(r.size(), 5u);
  EXPECT_DOUBLE_EQ(r[2], energy(h)); // lag 0
  for (std::size_t k = 0; k < r.size(); ++k)
    EXPECT_DOUBLE_EQ(r[k], r[r.size() - 1 - k]);
}

TEST(FilterSignal, MatchesConvolutionPrefix) {
  const std::vector<double> h{0.5, 0.25, 0.125};
  const std::vector<double> x{1.0, -1.0, 2.0, 0.5, -0.25};
  const auto y = filter_signal(h, x);
  const auto full = convolve(h, x);
  ASSERT_EQ(y.size(), x.size());
  for (std::size_t i = 0; i < y.size(); ++i)
    EXPECT_NEAR(y[i], full[i], 1e-12);
}

} // namespace
} // namespace fdbist::dsp
