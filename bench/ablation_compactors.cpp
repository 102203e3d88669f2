// Ablation: response-compaction schemes head to head. The paper assumes
// an ideal analyzer; this measures how close each practical compactor
// comes — per-fault aliasing rate and diagnostic sharpness — on the
// lowpass design.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/bench_util.hpp"
#include "bist/compactors.hpp"
#include "bist/diagnosis.hpp"
#include "designs/reference.hpp"
#include "fault/simulator.hpp"
#include "gate/sim.hpp"
#include "tpg/generators.hpp"
#include "tpg/lfsr.hpp"

int main() {
  using namespace fdbist;
  const auto d = designs::make_reference(designs::ReferenceFilter::Lowpass);
  const auto low = gate::lower(d.graph);
  const auto faults = fault::order_for_simulation(
      fault::enumerate_adder_faults(low), low.netlist, d.graph);
  const std::size_t vectors = bench::budget(1024);
  auto gen = tpg::make_generator(tpg::GeneratorKind::LfsrD, 12);
  const auto stim = gen->generate_raw(vectors);
  fault::FaultSimOptions fopt;
  fopt.num_threads = bench::threads();
  const auto result = fault::simulate_faults(low.netlist, stim, faults, fopt);

  // Sample detected faults for the per-scheme aliasing measurement.
  std::vector<std::size_t> sample;
  for (std::size_t i = 0; i < faults.size() && sample.size() < 192; i += 131)
    if (result.detect_cycle[i] >= 0) sample.push_back(i);

  bench::heading("Ablation: response compactors (LP, " +
                 std::to_string(vectors) + " vectors, " +
                 std::to_string(sample.size()) + " detected faults sampled)");
  std::printf("  %-18s %10s %12s\n", "compactor", "aliased", "aliasing %");

  auto row = [&](const char* name, std::size_t aliased) {
    std::printf("  %-18s %10zu %11.2f%%\n", name, aliased,
                100.0 * double(aliased) / double(sample.size()));
  };
  const auto& out_bits = low.netlist.outputs().front();
  const int w = static_cast<int>(out_bits.size());
  std::vector<fault::Fault> sampled;
  for (const std::size_t fi : sample) sampled.push_back(faults[fi]);

  // MISR: one signature run at the output width, where the kernel's
  // register is Misr(w) over the output stream.
  fault::FaultSimOptions sopt = fopt;
  sopt.signature = {w, tpg::default_polynomial(w).low_terms};
  row("MISR",
      fault::simulate_faults(low.netlist, stim, sampled, sopt).aliased());

  // Ones and transition counts are not linear, so every machine keeps
  // its own counters: one 63-lane sweep per batch of sampled faults,
  // lane 0 the good machine.
  std::size_t ones_aliased = 0;
  std::size_t transitions_aliased = 0;
  gate::WordSim sim(low.netlist);
  for (std::size_t base = 0; base < sampled.size(); base += 63) {
    const std::size_t count = std::min<std::size_t>(63, sampled.size() - base);
    sim.reset();
    sim.clear_faults();
    for (std::size_t k = 0; k < count; ++k) {
      const fault::Fault& f = sampled[base + k];
      sim.add_fault(f.gate, f.site, f.stuck, std::uint64_t{1} << (k + 1));
    }
    std::vector<bist::OnesCountCompactor> ones(count + 1,
                                               bist::OnesCountCompactor(w));
    std::vector<bist::TransitionCountCompactor> transitions(
        count + 1, bist::TransitionCountCompactor(w));
    for (const auto x : stim) {
      sim.step_broadcast(x);
      for (std::size_t lane = 0; lane <= count; ++lane) {
        const auto y =
            std::uint64_t(sim.lane_value(out_bits, static_cast<int>(lane)));
        ones[lane].absorb(y);
        transitions[lane].absorb(y);
      }
    }
    for (std::size_t lane = 1; lane <= count; ++lane) {
      ones_aliased += ones[lane].signature() == ones[0].signature();
      transitions_aliased +=
          transitions[lane].signature() == transitions[0].signature();
    }
  }
  row("ones-count", ones_aliased);
  row("transition-count", transitions_aliased);

  // Diagnostic sharpness of the MISR dictionary over a fault subsample.
  std::vector<fault::Fault> sub;
  for (std::size_t i = 0; i < faults.size(); i += 8) sub.push_back(faults[i]);
  bist::FaultDictionary dict(low.netlist, sub, stim);
  std::printf("\n  MISR fault dictionary over %zu faults: mean candidate "
              "set %.2f, %zu signature-indistinct from good\n",
              sub.size(), dict.mean_ambiguity(),
              dict.indistinct_from_good());
  bench::note("");
  bench::note("expected: the MISR aliases ~never; ones/transition counts "
              "alias a visible fraction — quantifying what the paper's "
              "no-aliasing assumption glosses over.");
  return 0;
}
