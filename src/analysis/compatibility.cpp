#include "analysis/compatibility.hpp"

#include <array>
#include <cmath>

#include "common/check.hpp"
#include "dsp/fir_design.hpp"
#include "dsp/spectrum.hpp"

namespace fdbist::analysis {

namespace {

constexpr std::size_t kPsdSamples = std::size_t{1} << 16;

// Rating thresholds on spectral efficiency. Calibrated so the five
// standard generators reproduce the paper's Table 3 on the three
// reference designs: a flat spectrum scores ~1.0; the Type 1 LFSR on
// the narrow lowpass scores ~0.07 ('-'); the Type 2 LFSR's smaller
// rolloff scores ~0.10 ('±' — the paper calls it design-dependent).
constexpr double kGoodThreshold = 0.55; // efficiency >= this: '+'
constexpr double kPoorThreshold = 0.09; // efficiency < this: '-'

} // namespace

const char* compatibility_symbol(Compatibility c) {
  switch (c) {
  case Compatibility::Good: return "+";
  case Compatibility::Marginal: return "±";
  case Compatibility::Poor: return "-";
  }
  return "?";
}

std::vector<double> generator_psd(tpg::Generator& gen) {
  gen.reset();
  return dsp::welch_psd(gen.generate_real(kPsdSamples), kPsdSegment);
}

CompatibilityResult rate_compatibility(tpg::Generator& gen,
                                       const std::vector<double>& h) {
  const auto psd = generator_psd(gen);
  const std::size_t bins = psd.size();
  const double df = 0.5 / static_cast<double>(kPsdSegment / 2);

  CompatibilityResult r;
  double hw_gain = 0.0; // integral of |H|^2 over the one-sided band
  for (std::size_t k = 0; k < bins; ++k) {
    const double f =
        static_cast<double>(k) / static_cast<double>(kPsdSegment);
    const double h2 = std::norm(dsp::freq_response(h, f));
    r.sigma_y2 += psd[k] * h2 * df;
    r.generator_power += psd[k] * df;
    hw_gain += h2 * df;
  }
  // Efficiency: observed passband delivery vs a flat generator with the
  // same total power (whose sigma_y^2 would be power * 2 * hw_gain over
  // the one-sided integral convention used by welch_psd).
  const double flat_sigma_y2 = r.generator_power * 2.0 * hw_gain;
  r.efficiency = flat_sigma_y2 > 0.0 ? r.sigma_y2 / flat_sigma_y2 : 0.0;
  if (r.efficiency >= kGoodThreshold)
    r.rating = Compatibility::Good;
  else if (r.efficiency >= kPoorThreshold)
    r.rating = Compatibility::Marginal;
  else
    r.rating = Compatibility::Poor;
  return r;
}

std::vector<CompatibilityRow> compatibility_matrix(
    const std::vector<rtl::FilterDesign>& designs) {
  constexpr std::array kKinds = {
      tpg::GeneratorKind::Lfsr1, tpg::GeneratorKind::Lfsr2,
      tpg::GeneratorKind::LfsrD, tpg::GeneratorKind::LfsrM,
      tpg::GeneratorKind::Ramp};
  std::vector<CompatibilityRow> rows;
  for (const auto kind : kKinds) {
    CompatibilityRow row;
    row.generator = tpg::kind_name(kind);
    for (const auto& d : designs) {
      auto gen = tpg::make_generator(kind, 12);
      row.per_design.push_back(
          rate_compatibility(*gen, d.quantized_impulse_response()));
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

tpg::GeneratorKind recommend_generator(const rtl::FilterDesign& d) {
  // Preference order: cheapest adequate pseudorandom generator first.
  // The Ramp comes last even when spectrally compatible — its extreme
  // low-frequency concentration gives poor pattern diversity for the
  // lower datapath bits (paper Section 8), so it is only recommended
  // when no LFSR-based generator rates '+'.
  constexpr std::array kByPreference = {
      tpg::GeneratorKind::Lfsr1, tpg::GeneratorKind::Lfsr2,
      tpg::GeneratorKind::LfsrD, tpg::GeneratorKind::LfsrM,
      tpg::GeneratorKind::Ramp};
  const auto h = d.quantized_impulse_response();
  tpg::GeneratorKind best = tpg::GeneratorKind::LfsrD;
  double best_eff = -1.0;
  for (const auto kind : kByPreference) {
    auto gen = tpg::make_generator(kind, 12);
    const auto r = rate_compatibility(*gen, h);
    if (r.rating == Compatibility::Good) return kind;
    if (r.efficiency > best_eff) {
      best_eff = r.efficiency;
      best = kind;
    }
  }
  return best; // nothing rates '+': highest spectral efficiency wins
}

} // namespace fdbist::analysis
