#include "designs/registry.hpp"

#include <cmath>

#include "common/check.hpp"
#include "dsp/fir_design.hpp"
#include "rtl/decimator_builder.hpp"
#include "rtl/fir_builder.hpp"
#include "rtl/iir_builder.hpp"

namespace fdbist::designs {

namespace {

// Scale an impulse response to an L1 norm of 0.98, inside the 16-bit
// unit output format with margin for truncation slack.
std::vector<double> l1_normalized(std::vector<double> h) {
  const double l1 = dsp::l1_norm(h);
  FDBIST_ASSERT(l1 > 0.0, "degenerate reference design");
  const double scale = 0.98 / l1;
  for (double& v : h) v *= scale;
  return h;
}

// The paper's Table 1 CUTs: lowpass, bandpass and highpass
// multiplierless FIRs of comparable complexity (~60 taps, 12-bit input,
// 14/15-bit coefficients, 16-bit output). The paper's exact coefficient
// sets are proprietary (FIRGEN designs); these are equivalent
// Kaiser-window designs — DESIGN.md §2 says why that preserves the
// testability behaviour.
struct Table1Fir {
  dsp::FirSpec fir;
  int coef_width;
};

// Narrow-band lowpass: passband well inside the Type 1 LFSR's
// low-frequency rolloff — the paper's problem case (Section 5).
constexpr Table1Fir kLowpass{
    {dsp::FilterKind::Lowpass, 60, 0.045, 0.0, 5.65}, 15};
// Mid-band, somewhat wider passband (paper Section 8 remarks the BP is
// slightly easier for wide-band generators).
constexpr Table1Fir kBandpass{
    {dsp::FilterKind::Bandpass, 58, 0.19, 0.31, 5.65}, 14};
// 61 taps: type I, because an even-length symmetric FIR is structurally
// zero at Nyquist (documented substitution).
constexpr Table1Fir kHighpass{
    {dsp::FilterKind::Highpass, 61, 0.42, 0.0, 5.65}, 15};

rtl::FilterDesign table1_fir(const Table1Fir& spec, const std::string& name) {
  rtl::FirBuilderOptions opt; // Table 1's 12-bit input
  opt.coef_width = spec.coef_width;
  return rtl::build_fir(l1_normalized(dsp::design_fir(spec.fir)), opt, name);
}

// L1 norm of the real-valued cascade impulse response, by direct DF-I
// recursion in doubles. Used to pre-scale the first section's numerator
// so the fixed-point cascade's output provably fits the 16-bit format.
double cascade_l1(const std::vector<rtl::BiquadSection>& secs, int n) {
  std::vector<double> x(static_cast<std::size_t>(n), 0.0);
  x[0] = 1.0;
  for (const rtl::BiquadSection& s : secs) {
    std::vector<double> y(static_cast<std::size_t>(n), 0.0);
    double x1 = 0.0, x2 = 0.0, y1 = 0.0, y2 = 0.0;
    for (int t = 0; t < n; ++t) {
      const double xt = x[std::size_t(t)];
      const double yt =
          s.b0 * xt + s.b1 * x1 + s.b2 * x2 - s.a1 * y1 - s.a2 * y2;
      x2 = x1;
      x1 = xt;
      y2 = y1;
      y1 = yt;
      y[std::size_t(t)] = yt;
    }
    x = std::move(y);
  }
  double l1 = 0.0;
  for (const double v : x) l1 += std::abs(v);
  return l1;
}

// Reference IIR: two DF-I biquads (a resonant lowpass into a gentle
// bandpass), poles well inside the builders' stability contract. The
// first section's numerator is scaled so the cascade L1 gain lands at
// 0.9 — inside the 16-bit output format with margin for the
// recirculated-truncation slack the feedback analysis adds.
std::vector<rtl::BiquadSection> iir4_sections() {
  std::vector<rtl::BiquadSection> secs = {
      {0.25, 0.5, 0.25, -0.9, 0.35},
      {0.4, 0.0, -0.4, -0.5, 0.2},
  };
  const double l1 = cascade_l1(secs, 2048);
  FDBIST_ASSERT(l1 > 0.0, "degenerate IIR reference design");
  const double scale = 0.9 / l1;
  secs[0].b0 *= scale;
  secs[0].b1 *= scale;
  secs[0].b2 *= scale;
  return secs;
}

// Reference decimator: 2-to-1 with a 31-tap Kaiser lowpass cut at the
// new Nyquist rate, L1-normalized like the Table 1 references.
std::vector<double> dec2_coefficients() {
  return l1_normalized(
      dsp::design_fir({dsp::FilterKind::Lowpass, 31, 0.21, 0.0, 5.65}));
}

} // namespace

const std::vector<RegistryEntry>& design_registry() {
  static const std::vector<RegistryEntry> entries = {
      {"LP", rtl::DesignFamily::Fir,
       "Table 1 lowpass FIR (60 taps, narrow band)"},
      {"BP", rtl::DesignFamily::Fir,
       "Table 1 bandpass FIR (58 taps, mid band)"},
      {"HP", rtl::DesignFamily::Fir,
       "Table 1 highpass FIR (61 taps, type I)"},
      {"IIR4", rtl::DesignFamily::IirBiquad,
       "two DF-I biquad sections (4th-order recursive cascade)"},
      {"DEC2", rtl::DesignFamily::PolyphaseDecimator,
       "2-to-1 polyphase decimator (31-tap Kaiser lowpass)"},
  };
  return entries;
}

bool has_design(const std::string& name) {
  for (const RegistryEntry& e : design_registry())
    if (e.name == name) return true;
  return false;
}

rtl::FilterDesign make_design(const std::string& name) {
  if (name == "LP") return table1_fir(kLowpass, name);
  if (name == "BP") return table1_fir(kBandpass, name);
  if (name == "HP") return table1_fir(kHighpass, name);
  if (name == "IIR4") {
    rtl::IirBuilderOptions opt;
    return rtl::build_iir_biquad(iir4_sections(), opt, "IIR4");
  }
  if (name == "DEC2") {
    rtl::DecimatorOptions opt;
    return rtl::build_polyphase_decimator(dec2_coefficients(), opt, "DEC2");
  }
  std::string names;
  for (const RegistryEntry& e : design_registry()) {
    if (!names.empty()) names += ", ";
    names += e.name;
  }
  throw precondition_error("unknown design name \"" + name +
                           "\" (registered: " + names + ")");
}

} // namespace fdbist::designs
