// Structural Verilog export of a lowered netlist.
//
// Emits a synthesizable gate-level module (assign-based combinational
// logic plus an always block on `clk` with a synchronous, active-high
// `rst` for the registers) so designs built here can be taken to
// external simulators or synthesis flows.
#pragma once

#include <iosfwd>
#include <string>

#include "gate/lower.hpp"

namespace fdbist::gate {

/// Write the netlist as a structural Verilog module. Primary inputs
/// become one input bus per RTL input; observed outputs become output
/// buses y0, y1, ...
void write_verilog(std::ostream& os, const Netlist& nl,
                   const std::string& module_name = "fdbist_filter");

/// Convenience: export to a string.
std::string to_verilog(const Netlist& nl,
                       const std::string& module_name = "fdbist_filter");

} // namespace fdbist::gate
