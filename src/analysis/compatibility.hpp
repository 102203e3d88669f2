// Frequency-domain generator/filter compatibility (paper Section 6.1,
// Table 3).
//
// The output variance of the CUT under a generator is estimated as
//   sigma_y^2 = (1/L) sum_k |G[k]|^2 |H[k]|^2          (paper, Sec. 6.1)
// where G is the generator's discrete power spectrum and H the filter's
// DFT. A generator is compatible when it delivers passband power
// comparable to a flat-spectrum generator of the same total power; a
// shape mismatch starves the passband and is flagged.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "rtl/fir_builder.hpp"
#include "tpg/generator.hpp"

namespace fdbist::analysis {

enum class Compatibility {
  Good,      ///< '+' in Table 3
  Marginal,  ///< '±' — depends on design specifics
  Poor,      ///< '-'
};

const char* compatibility_symbol(Compatibility c); ///< "+", "±", "-"

struct CompatibilityResult {
  double sigma_y2 = 0.0;    ///< estimated CUT output variance
  double generator_power = 0.0; ///< total generator signal power
  /// sigma_y^2 normalized by (generator power * filter white-noise
  /// gain): 1.0 means the generator's spectrum shape is a perfect match
  /// for a flat generator of the same power.
  double efficiency = 0.0;
  Compatibility rating = Compatibility::Good;
};

/// Welch segment of generator_psd: its bins sit at
/// dsp::welch_frequencies(kPsdSegment).
inline constexpr std::size_t kPsdSegment = 256;

/// Empirical PSD of a generator (Welch over 2^16 generated samples).
std::vector<double> generator_psd(tpg::Generator& gen);

/// Rate a generator against a filter's quantized impulse response.
CompatibilityResult rate_compatibility(tpg::Generator& gen,
                                       const std::vector<double>& h);

/// One row of Table 3: a generator rated against all provided designs.
struct CompatibilityRow {
  std::string generator;
  std::vector<CompatibilityResult> per_design;
};

/// The full Table 3 matrix for the standard five generators.
std::vector<CompatibilityRow> compatibility_matrix(
    const std::vector<rtl::FilterDesign>& designs);

/// Recommend the standard generator with the highest estimated output
/// variance for the design (ties broken toward lower hardware cost).
tpg::GeneratorKind recommend_generator(const rtl::FilterDesign& d);

} // namespace fdbist::analysis
