// Signal-variance testability analysis (paper Section 7.1, Eqn 1).
//
// For a linear datapath, the test-signal variance at adder k under a
// white source of variance sigma_x^2 is sigma_x^2 * sum_i h_k[i]^2. For a
// Type 1 LFSR the source is modeled as 0/1 white noise (variance 0.25)
// filtered by g[n] (analysis/lfsr_model.hpp), so h_k is replaced by
// h_k * g. A low predicted variance relative to the adder's full scale
// flags a potential test problem — found *before* any fault simulation.
#pragma once

#include <vector>

#include "rtl/fir_builder.hpp"

namespace fdbist::analysis {

/// Per-node predicted standard deviation of the test signal, as a real
/// value, for an ideal white source of the given variance.
std::vector<double> predict_sigma_white(const rtl::FilterDesign& d,
                                        double sigma_x2);

/// Per-node predicted standard deviation under the Type 1 LFSR linear
/// model of the given width.
std::vector<double> predict_sigma_lfsr1(const rtl::FilterDesign& d,
                                        int lfsr_width);

/// A flagged testability problem: an adder whose predicted test-signal
/// swing is small compared with its full-scale range.
struct AttenuationReport {
  rtl::NodeId node = rtl::kNoNode;
  double sigma = 0.0;      ///< predicted std deviation (real units)
  double full_scale = 0.0; ///< adder range half-width 2^(intbits-1)
  double relative = 0.0;   ///< sigma / full_scale
  /// Upper bits unlikely to be exercised: floor(-log2(relative)) - 1.
  int untestable_upper_bits = 0;
};

/// All adders whose sigma/full-scale ratio falls below `threshold`,
/// worst first.
std::vector<AttenuationReport> find_attenuation_problems(
    const rtl::FilterDesign& d, const std::vector<double>& sigma,
    double threshold = 0.125);

} // namespace fdbist::analysis
