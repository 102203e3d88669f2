// Graphviz DOT export of RTL graphs, for inspecting filter structure
// (tap cascades, CSD trees, scaling decisions) visually. Each node's
// label carries its fixed-point format, Qx.y(wN).
#pragma once

#include <iosfwd>
#include <string>

#include "rtl/graph.hpp"

namespace fdbist::rtl {

void write_dot(std::ostream& os, const Graph& g,
               const std::string& graph_name = "fdbist");
std::string to_dot(const Graph& g, const std::string& graph_name = "fdbist");

} // namespace fdbist::rtl
