// Fault-injection demo: watch a single stuck-at fault corrupt a filter's
// output, and see why response compaction still catches it.
//
//   $ ./build/examples/fault_injection_demo
//
// Picks an upper-bit carry fault in a tap accumulator, drives the faulty
// and fault-free machines side by side with a sine input, prints the
// first corrupted samples, and verifies the MISR signatures diverge.
#include <cmath>
#include <cstdio>

#include "bist/kit.hpp"
#include "designs/registry.hpp"
#include "fault/fault.hpp"
#include "gate/sim.hpp"
#include "tpg/generators.hpp"

int main() {
  using namespace fdbist;
  const auto design = designs::make_design("LP");
  bist::BistKit kit(design);

  // Choose a fault two bits below the MSB of the tap-20 accumulator.
  const auto tap = design.tap_accumulators[20];
  fault::Fault chosen{};
  bool found = false;
  for (const auto& f : kit.faults()) {
    const auto& og = kit.lowered().netlist.origin(f.gate);
    if (og.node == tap && og.role == gate::CellRole::CarryOr &&
        fault::bits_below_msb(f, kit.lowered().netlist, design.graph) == 2 &&
        f.stuck == 1) {
      chosen = f;
      found = true;
      break;
    }
  }
  if (!found) {
    std::printf("no matching fault site found\n");
    return 1;
  }
  std::printf("injected fault: %s\n",
              fault::describe(chosen, kit.lowered().netlist,
                              design.graph).c_str());

  // Drive a sine and compare lanes 0 (good) and 1 (faulty).
  tpg::SineSource sine(12, 0.9, 0.017);
  const auto stim = sine.generate_raw(1500);
  gate::WordSim sim(kit.lowered().netlist);
  sim.add_fault(chosen.gate, chosen.site, chosen.stuck, 1ull << 1);
  const auto& out = kit.lowered().netlist.outputs().front();
  const auto fmt = design.graph.node(design.output).fmt;

  std::size_t corrupted = 0;
  std::printf("\nfirst corrupted output samples:\n");
  std::printf("  %-6s %12s %12s %12s\n", "cycle", "good", "faulty", "error");
  for (std::size_t n = 0; n < stim.size(); ++n) {
    sim.step_broadcast(stim[n]);
    const double g = fmt.to_real(sim.lane_value(out, 0));
    const double b = fmt.to_real(sim.lane_value(out, 1));
    if (g != b) {
      if (++corrupted <= 8)
        std::printf("  %-6zu %12.5f %12.5f %12.5f\n", n, g, b, b - g);
    }
  }
  std::printf("  ... %zu corrupted samples out of %zu\n", corrupted,
              stim.size());

  // A BIST response analyzer only sees the compacted signature: verify
  // the corruption survives compaction.
  const bool caught = kit.signature_detects(chosen, stim);
  std::printf("\nMISR signature %s the fault\n",
              caught ? "catches" : "ALIASES");
  return caught ? 0 : 1;
}
