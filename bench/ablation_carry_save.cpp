// Ablation (paper Section 3): ripple-carry vs carry-save accumulation.
// The paper's analysis applies to both implementation styles; carry-save
// arrays trade roughly doubled register count for shorter critical
// paths. This bench compares the two lowerings of the same lowpass
// design — structure, fault universe, and fault coverage under the
// compatible (LFSR-D) and incompatible (LFSR-1) generators.
#include <cstdio>

#include "bench/bench_util.hpp"
#include "designs/registry.hpp"
#include "fault/simulator.hpp"
#include "gate/lower.hpp"
#include "tpg/generators.hpp"

int main() {
  using namespace fdbist;
  const std::size_t vectors = bench::budget(4096);
  const auto d = designs::make_design("LP");

  bench::heading("Ablation: ripple-carry vs carry-save accumulation (LP)");

  struct Variant {
    const char* name;
    gate::LoweredDesign low;
  };
  Variant variants[] = {
      {"ripple-carry", gate::lower(d.graph)},
      {"carry-save", gate::lower_carry_save(d)},
  };

  std::printf("  %-14s %8s %10s %8s %10s %10s\n", "variant", "gates",
              "reg bits", "faults", "LFSR-1", "LFSR-D");
  for (auto& v : variants) {
    const auto faults = fault::order_for_simulation(
        fault::enumerate_adder_faults(v.low), v.low.netlist, d.graph);
    std::size_t missed[2] = {0, 0};
    int gi = 0;
    for (const auto k :
         {tpg::GeneratorKind::Lfsr1, tpg::GeneratorKind::LfsrD}) {
      auto gen = tpg::make_generator(k, 12);
      const auto stim = gen->generate_raw(vectors);
      fault::FaultSimOptions opt;
      opt.num_threads = bench::threads();
      const std::string label =
          std::string(v.name) + "/" + tpg::kind_name(k);
      opt.progress = [&](std::size_t a, std::size_t b) {
        bench::progress(label.c_str(), a, b);
      };
      missed[gi++] =
          fault::simulate_faults(v.low.netlist, stim, faults, opt).missed();
    }
    std::printf("  %-14s %8zu %10zu %8zu %10zu %10zu\n", v.name,
                v.low.netlist.logic_gate_count(),
                v.low.netlist.registers().size(), faults.size(), missed[0],
                missed[1]);
  }
  bench::note("");
  bench::note("expected: the carry-save variant roughly doubles the "
              "register bits (paper Section 3); the frequency-domain "
              "compatibility ordering (LFSR-1 worse than LFSR-D on this "
              "lowpass) holds for both implementation styles.");
  return 0;
}
