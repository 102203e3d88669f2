// Single-stuck-at fault model over lowered adder cells.
//
// The paper's fault universe (Table 1, "faults") is the set of stuck-at
// faults in the adders and subtractors; register faults are excluded
// because they pose no testing obstacle (Section 3). We enumerate stuck-at
// faults on the gate pins of every lowered full-adder cell with standard
// equivalence collapsing:
//   - AND: input s-a-0 == output s-a-0 (keep the output fault)
//   - OR:  input s-a-1 == output s-a-1
//   - NOT: input faults == inverted output faults
//   - a pin fault on a fanout-free net == the driver's output fault
//     (kept on the driver when the driver is itself in the universe)
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gate/lower.hpp"
#include "gate/sim.hpp"

namespace fdbist::fault {

struct Fault {
  gate::NetId gate = gate::kNoNet;
  gate::PinSite site = gate::PinSite::Output;
  std::uint8_t stuck = 0; ///< 0 or 1

  friend constexpr bool operator==(const Fault&, const Fault&) = default;
};

/// All stuck-at faults in the Add/Sub cells of a lowered design, in gate
/// order: adder-major and LSB-to-MSB within each adder, since lowering
/// emits an adder's cells together.
std::vector<Fault> enumerate_adder_faults(const gate::LoweredDesign& d);

/// Human-readable location, e.g. "tap20.acc bit 12/15 (s inA s-a-1)".
std::string describe(const Fault& f, const gate::Netlist& nl,
                     const rtl::Graph& g);

/// Distance of the fault's bit position below its adder's MSB (0 = MSB).
int bits_below_msb(const Fault& f, const gate::Netlist& nl,
                   const rtl::Graph& g);

/// The universe order: easy (quickly detected) faults first, the hard
/// upper-bit faults at the end. Each fault's score combines its bit
/// position below the adder MSB with the node's white-noise signal
/// variance (paper Eqn 1); faults are stable-sorted by it, each scored
/// once. The order fixes fault indices — in reports, verdict digests
/// and checkpoint positions — but never a verdict, and not how
/// simulate_faults batches a given set of faults: it packs its batches
/// by fault site whatever order it is given.
std::vector<Fault> order_for_simulation(std::vector<Fault> faults,
                                        const gate::Netlist& nl,
                                        const rtl::Graph& g);

/// The same order from the design's own linear analysis
/// (FilterDesign::linear) instead of recomputing it from the graph.
std::vector<Fault> order_for_simulation(std::vector<Fault> faults,
                                        const gate::Netlist& nl,
                                        const rtl::FilterDesign& design);

} // namespace fdbist::fault
