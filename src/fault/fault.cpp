#include "fault/fault.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/check.hpp"
#include "rtl/linear_model.hpp"

namespace fdbist::fault {

namespace {

bool is_logic(gate::GateOp op) {
  using gate::GateOp;
  return op == GateOp::Not || op == GateOp::And || op == GateOp::Or ||
         op == GateOp::Xor;
}

} // namespace

std::vector<Fault> enumerate_adder_faults(const gate::LoweredDesign& d) {
  const gate::Netlist& nl = d.netlist;
  const auto fanout = nl.fanout_counts();

  // A pin fault collapses onto its driver's output fault when the net is
  // fanout-free and the driver fault is itself enumerated (i.e. the
  // driver is a logic gate inside an adder cell).
  auto collapses_to_driver = [&](gate::NetId driver) {
    if (fanout[std::size_t(driver)] != 1) return false;
    const gate::Gate& dg = nl.gate(driver);
    if (!is_logic(dg.op)) return false;
    return nl.origin(driver).role != gate::CellRole::None;
  };

  std::vector<Fault> faults;
  faults.reserve(nl.size() * 4);
  for (std::size_t i = 0; i < nl.size(); ++i) {
    const auto id = static_cast<gate::NetId>(i);
    const gate::Gate& g = nl.gate(id);
    const gate::GateOrigin& og = nl.origin(id);
    if (!is_logic(g.op) || og.role == gate::CellRole::None) continue;

    // Output faults: both polarities, always enumerated here.
    faults.push_back({id, gate::PinSite::Output, 0});
    faults.push_back({id, gate::PinSite::Output, 1});

    if (g.op == gate::GateOp::Not) continue; // input == inverted output

    for (const gate::PinSite site :
         {gate::PinSite::InputA, gate::PinSite::InputB}) {
      const gate::NetId src = site == gate::PinSite::InputA ? g.a : g.b;
      for (int stuck = 0; stuck <= 1; ++stuck) {
        if (g.op == gate::GateOp::And && stuck == 0) continue;
        if (g.op == gate::GateOp::Or && stuck == 1) continue;
        if (collapses_to_driver(src)) continue;
        faults.push_back({id, site, static_cast<std::uint8_t>(stuck)});
      }
    }
  }
  return faults;
}

std::string describe(const Fault& f, const gate::Netlist& nl,
                     const rtl::Graph& g) {
  const gate::GateOrigin& og = nl.origin(f.gate);
  std::ostringstream os;
  if (og.node != rtl::kNoNode) {
    const rtl::Node& nd = g.node(og.node);
    os << (nd.name.empty() ? rtl::op_name(nd.kind) : nd.name) << " bit "
       << og.bit << '/' << nd.fmt.width - 1;
  } else {
    os << "gate " << f.gate;
  }
  os << " (" << gate::cell_role_name(og.role) << ' '
     << gate::pin_site_name(f.site) << " s-a-" << int(f.stuck) << ')';
  return os.str();
}

int bits_below_msb(const Fault& f, const gate::Netlist& nl,
                   const rtl::Graph& g) {
  const gate::GateOrigin& og = nl.origin(f.gate);
  FDBIST_REQUIRE(og.node != rtl::kNoNode, "fault has no RTL origin");
  return g.node(og.node).fmt.width - 1 - og.bit;
}

namespace {

/// order_for_simulation over precomputed white-noise variance gains.
std::vector<Fault> order_by_difficulty(std::vector<Fault> faults,
                                       const gate::Netlist& nl,
                                       const rtl::Graph& g,
                                       const std::vector<double>& gains) {
  // Higher score = easier fault: more bits below the MSB, and a larger
  // expected signal swing (log sigma) at the owning node.
  auto score = [&](const Fault& f) {
    const gate::GateOrigin& og = nl.origin(f.gate);
    const rtl::Node& nd = g.node(og.node);
    const double sigma = std::sqrt(gains[std::size_t(og.node)]) + 1e-12;
    // Normalize the swing against the node's full-scale range so that
    // conservatively scaled (excess-headroom) adders rank as hard.
    const double full_scale = nd.fmt.real_max() + nd.fmt.lsb();
    const double rel = sigma / full_scale;
    return static_cast<double>(nd.fmt.width - 1 - og.bit) + std::log2(rel);
  };

  // Score each fault once, then stable-sort the keys.
  struct Keyed {
    double score;
    Fault fault;
  };
  std::vector<Keyed> keyed;
  keyed.reserve(faults.size());
  for (const Fault& f : faults) keyed.push_back({score(f), f});
  std::stable_sort(keyed.begin(), keyed.end(),
                   [](const Keyed& a, const Keyed& b) {
                     return a.score > b.score;
                   });
  for (std::size_t i = 0; i < faults.size(); ++i) faults[i] = keyed[i].fault;
  return faults;
}

} // namespace

std::vector<Fault> order_for_simulation(std::vector<Fault> faults,
                                        const gate::Netlist& nl,
                                        const rtl::Graph& g) {
  return order_by_difficulty(std::move(faults), nl, g,
                             rtl::variance_gains(rtl::analyze_linear(g)));
}

std::vector<Fault> order_for_simulation(std::vector<Fault> faults,
                                        const gate::Netlist& nl,
                                        const rtl::FilterDesign& design) {
  return order_by_difficulty(std::move(faults), nl, design.graph,
                             rtl::variance_gains(design.linear));
}

} // namespace fdbist::fault
