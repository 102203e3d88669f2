// Direct-form-I IIR biquad cascade construction.
//
// Each section realizes
//
//   y[n] = b0 x[n] + b1 x[n-1] + b2 x[n-2] - a1 y[n-1] - a2 y[n-2]
//
// (denominator convention 1 + a1 z^-1 + a2 z^-2) with the same hardwired
// CSD shift-and-add products the FIR taps use. The recursive terms read
// forward-bound state registers (rtl::Graph::reg_forward), so the graph
// stays topologically ordered for the combinational sweep while the
// registers close the feedback loop across cycles. Because a1 can lie in
// (-2, 2), the builder quantizes a1/2 and realizes the product with
// scale_pow2 = 1 (see rtl::make_product).
//
// Feedback makes the fixed-point datapath only approximately linear:
// truncation error recirculates. rtl::analyze_linear bounds it per
// truncation site through the loop dynamics (see rtl/linear_model.hpp),
// and the verify-layer superposition oracle consumes that bound.
#pragma once

#include <string>
#include <vector>

#include "rtl/builder.hpp"

namespace fdbist::rtl {

/// One biquad's real coefficients. Stability/realizability contract
/// (enforced by build_iir_biquad): |b_i| < 1, a2 in [-0.4, 0.7], and
/// |a1| <= 0.8 * (1 + a2) — poles safely inside the unit circle so the
/// impulse response decays within the linear model's analysis window.
struct BiquadSection {
  double b0 = 0.0;
  double b1 = 0.0;
  double b2 = 0.0;
  double a1 = 0.0;
  double a2 = 0.0;
};

/// The input is always registered and the output is always the
/// kOutputWidth-bit unit word (rtl/builder.hpp); neither is an option.
struct IirBuilderOptions {
  int input_width = 12;
  int coef_width = 15;
  int product_frac = 15; ///< fractional bits kept in the datapath
  int state_width = 20;  ///< section state format {state_width, product_frac}
};

/// Build, scale, and analyze a DF-I biquad cascade. Sections run in the
/// given order, each feeding the next through its state-format output.
/// Throws precondition_error on invalid options or coefficients outside
/// the stability contract, and invariant_error when the (quantized)
/// cascade's response fails to decay or overflows a section state.
FilterDesign build_iir_biquad(const std::vector<BiquadSection>& sections,
                              const IirBuilderOptions& opt = {},
                              std::string name = "iir");

} // namespace fdbist::rtl
