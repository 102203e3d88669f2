// Polyphase decimating FIR construction.
//
// An M-to-1 decimator evaluated at the low (output) rate: each clock the
// datapath consumes M input samples packed into one word — lane m of the
// packed input carries x[M*n + m] in the low-to-high bit order — and
// produces one output
//
//   y[n] = sum_j h[j] * x[M*n - j]
//
// via M polyphase branches e_m[k] = h[k*M + m]. Branch 0 filters lane 0
// directly; branch m > 0 filters lane M-m delayed by one (packed) cycle,
// since x[M*n - m] = x[M*(n-1) + (M-m)]. Each branch is the same
// transposed-form CSD tap cascade the FIR builder uses.
//
// Lane extraction is exact bit slicing (Resize arithmetic-shifts the
// packed word down by m*lane_width and wraps to lane_width bits; a Scale
// then restores unit weighting), but it makes the graph nonlinear in the
// packed word's real value, so the generic L1 width assignment would
// under-size branches m > 0 by 2^(m*lane_width). The builder therefore
// assigns widths from its own lane-aware bound propagation and patches
// the stored linear info's bounds accordingly.
#pragma once

#include <string>
#include <vector>

#include "rtl/builder.hpp"

namespace fdbist::rtl {

/// The input is always registered and the output is always the
/// kOutputWidth-bit unit word (rtl/builder.hpp); neither is an option.
struct DecimatorOptions {
  int factor = 2;        ///< decimation ratio M (2..4)
  int lane_width = 12;   ///< bits per packed input sample
  int coef_width = 15;
  int product_frac = 15; ///< fractional bits kept in the datapath
};

/// Build, scale, and analyze an M-phase polyphase decimator from the
/// full-rate impulse response `coefficients` (coefficient j multiplies
/// x[M*n - j]). Throws precondition_error on invalid options or
/// coefficients outside (-1, 1), or when the quantized L1 gain exceeds
/// the output format.
FilterDesign build_polyphase_decimator(
    const std::vector<double>& coefficients, const DecimatorOptions& opt = {},
    std::string name = "decim");

} // namespace fdbist::rtl
