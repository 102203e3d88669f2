// Conservative width assignment ("scaling") for RTL datapaths.
//
// Reproduces the paper's Section 3 flow: L1-norm bounds derived from each
// node's impulse response guarantee that no adder can overflow, and the
// deliberately conservative rounding of those bounds to power-of-two
// ranges leaves the excess headroom at upper bits that makes the T1/T6
// tests hard (Section 4).
#pragma once

#include <vector>

#include "rtl/graph.hpp"
#include "rtl/linear_model.hpp"

namespace fdbist::rtl {

/// Assign the width of every non-fixed node from its L1 amplitude bound,
/// keeping fractional-bit assignments untouched. Node ids in `fixed` (plus
/// all Input/Const nodes) keep their existing formats. Returns the linear
/// info used, so callers can reuse it for analysis.
std::vector<NodeLinearInfo> assign_widths(Graph& g,
                                          const std::vector<NodeId>& fixed);

/// Width needed for a value bound B at `frac` fractional bits, using the
/// conservative rule width = frac + floor(log2(B)) + 2 (i.e. the smallest
/// power-of-two range strictly greater than B, plus the sign bit),
/// clamped to [2, 62].
int width_for_bound(double bound, int frac);

} // namespace fdbist::rtl
