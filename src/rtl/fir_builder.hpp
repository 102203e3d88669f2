// Transposed-direct-form multiplierless FIR construction.
//
// Builds the paper's filter architecture (Section 3): a cascade of tap
// structures, each a hardwired CSD shift-and-add constant multiplication
// plus a delay register:
//
//   w_k[n] = c_k * x[n] + w_{k+1}[n-1],      y[n] = w_0[n]
//
// behind an input register, followed by conservative L1-norm scaling
// (see rtl/scaling.hpp) and a resize to the 16-bit output word.
// DesignStats / FilterDesign and the shared tap-cascade machinery live
// in rtl/builder.hpp, common to every design family.
#pragma once

#include <string>
#include <vector>

#include "rtl/builder.hpp"

namespace fdbist::rtl {

/// The input is always registered and the output is always the
/// kOutputWidth-bit unit word (rtl/builder.hpp); neither is an option.
struct FirBuilderOptions {
  int input_width = 12;  ///< Table 1: 12-bit input
  int coef_width = 15;   ///< Table 1: 14/15-bit coefficients
  int product_frac = 15; ///< fractional bits kept in the datapath
};

/// Build, scale, and analyze a transposed-form CSD FIR from real
/// coefficients. Throws precondition_error on invalid options or
/// coefficients outside [-1, 1).
FilterDesign build_fir(const std::vector<double>& coefficients,
                       const FirBuilderOptions& opt = {},
                       std::string name = "fir");

} // namespace fdbist::rtl
