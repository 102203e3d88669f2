#include <sstream>
#include <gtest/gtest.h>

#include "designs/registry.hpp"
#include "gate/verilog.hpp"
#include "rtl/dot_export.hpp"
#include "rtl/fir_builder.hpp"
#include "verify/reparse.hpp"

namespace fdbist {
namespace {

const rtl::FilterDesign& small_design() {
  static const auto d =
      rtl::build_fir({0.22, -0.31, 0.085}, {}, "small");
  return d;
}

TEST(Verilog, ContainsModuleSkeleton) {
  const auto low = gate::lower(small_design().graph);
  const auto v = gate::to_verilog(low.netlist);
  EXPECT_NE(v.find("module fdbist_filter"), std::string::npos);
  EXPECT_NE(v.find("endmodule"), std::string::npos);
  EXPECT_NE(v.find("input wire clk"), std::string::npos);
  EXPECT_NE(v.find("input wire [11:0] x0"), std::string::npos);
  EXPECT_NE(v.find("output wire [15:0] y0"), std::string::npos);
  EXPECT_NE(v.find("always @(posedge clk)"), std::string::npos);
}

TEST(Verilog, EveryNetDeclaredExactlyOnce) {
  const auto low = gate::lower(small_design().graph);
  const auto v = gate::to_verilog(low.netlist);
  for (std::size_t i = 0; i < low.netlist.size(); ++i) {
    const std::string decl_wire = "wire n" + std::to_string(i) + ";";
    const std::string decl_reg = "reg n" + std::to_string(i) + ";";
    const bool has_wire = v.find(decl_wire) != std::string::npos;
    const bool has_reg = v.find(decl_reg) != std::string::npos;
    EXPECT_TRUE(has_wire != has_reg) << "net " << i;
  }
}

TEST(Verilog, GateOperatorsEmitted) {
  const auto low = gate::lower(small_design().graph);
  const auto v = gate::to_verilog(low.netlist);
  EXPECT_NE(v.find(" ^ "), std::string::npos); // XOR cells
  EXPECT_NE(v.find(" & "), std::string::npos); // carry ANDs
  EXPECT_NE(v.find(" | "), std::string::npos); // carry ORs
  EXPECT_NE(v.find("1'b0"), std::string::npos);
}

TEST(Verilog, RegisterCountMatches) {
  const auto low = gate::lower(small_design().graph);
  const auto v = gate::to_verilog(low.netlist);
  std::size_t arrows = 0;
  for (std::size_t p = v.find("<="); p != std::string::npos;
       p = v.find("<=", p + 1))
    ++arrows;
  // Each register bit appears twice: reset branch and data branch.
  EXPECT_EQ(arrows, 2 * low.netlist.registers().size());
}

TEST(Verilog, CustomNames) {
  const auto low = gate::lower(small_design().graph);
  const auto v = gate::to_verilog(low.netlist, "my_filter");
  EXPECT_NE(v.find("module my_filter"), std::string::npos);
  EXPECT_NE(v.find("if (rst)"), std::string::npos);
  std::ostringstream os;
  EXPECT_THROW(gate::write_verilog(os, low.netlist, ""), precondition_error);
}

TEST(Dot, ContainsAllNodesAndEdges) {
  const auto& d = small_design();
  const auto dot = rtl::to_dot(d.graph);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("rankdir=LR"), std::string::npos);
  // One node statement per RTL node.
  std::size_t nodes = 0;
  for (std::size_t p = dot.find("[shape="); p != std::string::npos;
       p = dot.find("[shape=", p + 1))
    ++nodes;
  EXPECT_EQ(nodes, d.graph.size());
  // Named nodes carry their labels, and every label its format.
  EXPECT_NE(dot.find("tap1.acc"), std::string::npos);
  EXPECT_NE(dot.find("x.reg"), std::string::npos);
  EXPECT_NE(dot.find("(w16)"), std::string::npos);
}

// Round-trip: the emitted text, parsed back, must structurally match the
// in-memory design — every gate with its exact op and operands, every
// register pair, every input/output bit binding (Verilog); every node
// with its shape and op label, every operand edge with its styling
// (DOT). Checked on all three reference filters so a formatting
// regression in either emitter fails loudly.
TEST(ExportRoundTrip, VerilogReparsesForEveryTable1Design) {
  for (const char* name : {"LP", "BP", "HP"}) {
    const auto d = designs::make_design(name);
    const auto low = gate::lower(d.graph);
    auto parsed = verify::parse_verilog(gate::to_verilog(low.netlist));
    ASSERT_TRUE(parsed) << d.name << ": " << parsed.error().to_string();
    const auto match = verify::match_verilog(*parsed, low.netlist);
    EXPECT_FALSE(match.failed) << d.name << ": " << match.detail;
  }
}

TEST(ExportRoundTrip, DotReparsesForEveryTable1Design) {
  for (const char* name : {"LP", "BP", "HP"}) {
    const auto d = designs::make_design(name);
    auto parsed = verify::parse_dot(rtl::to_dot(d.graph, d.name));
    ASSERT_TRUE(parsed) << d.name << ": " << parsed.error().to_string();
    EXPECT_EQ(parsed->graph_name, d.name);
    const auto match = verify::match_dot(*parsed, d.graph);
    EXPECT_FALSE(match.failed) << d.name << ": " << match.detail;
  }
}

TEST(ExportRoundTrip, ReparserCatchesTamperedVerilog) {
  const auto low = gate::lower(small_design().graph);
  const auto text = gate::to_verilog(low.netlist);
  // Flip one AND into an OR in the text; the structural match must
  // pinpoint the changed gate even though the text still parses.
  const auto pos = text.find(" & ");
  ASSERT_NE(pos, std::string::npos);
  std::string tampered = text;
  tampered[pos + 1] = '|';
  auto parsed = verify::parse_verilog(tampered);
  ASSERT_TRUE(parsed) << parsed.error().to_string();
  EXPECT_TRUE(verify::match_verilog(*parsed, low.netlist).failed);

  // Dropping a register update arm must be caught too.
  const auto arrow = text.find(" <= n");
  ASSERT_NE(arrow, std::string::npos);
  const auto line_start = text.rfind('\n', arrow) + 1;
  const auto line_end = text.find('\n', arrow);
  std::string missing = text.substr(0, line_start) +
                        text.substr(line_end + 1);
  auto parsed2 = verify::parse_verilog(missing);
  if (parsed2) { // an undriven reg can also fail at parse time
    EXPECT_TRUE(verify::match_verilog(*parsed2, low.netlist).failed);
  }
}

TEST(ExportRoundTrip, ReparserCatchesMissingDotEdge) {
  const auto& d = small_design();
  const auto text = rtl::to_dot(d.graph);
  const auto pos = text.find(" -> ");
  ASSERT_NE(pos, std::string::npos);
  const auto line_start = text.rfind('\n', pos) + 1;
  const auto line_end = text.find('\n', pos);
  const std::string missing =
      text.substr(0, line_start) + text.substr(line_end + 1);
  auto parsed = verify::parse_dot(missing);
  ASSERT_TRUE(parsed) << parsed.error().to_string();
  EXPECT_TRUE(verify::match_dot(*parsed, d.graph).failed);
}

} // namespace
} // namespace fdbist
