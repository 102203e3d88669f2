// Extension (paper Section 10): deterministic BIST top-off. After the
// Section 9 mixed pseudorandom session, append the closed-form
// worst-case windows (analysis/targeted.hpp) that drive every structural
// adder to its L1 amplitude bound — asserting the T1/T6 zones that
// pseudorandom sequences reach only by luck.
#include <cstdio>

#include "analysis/targeted.hpp"
#include "bench/bench_util.hpp"
#include "bist/kit.hpp"
#include "designs/registry.hpp"
#include "fault/simulator.hpp"
#include "tpg/generators.hpp"

int main() {
  using namespace fdbist;
  const std::size_t half = bench::budget(4096);

  bench::heading("Extension: deterministic worst-case top-off after the "
                 "mixed scheme");
  std::printf("  %-5s %22s %8s %10s\n", "Des.", "scheme", "vectors",
              "missed");

  for (const char* name : {"LP", "HP"}) {
    const auto d = designs::make_design(name);
    bist::BistKit kit(d);

    tpg::SwitchedLfsr mixed(12, half, 1);
    auto stim = mixed.generate_raw(2 * half);
    fault::FaultSimOptions opt;
    opt.num_threads = bench::threads();
    opt.progress = [&](std::size_t a, std::size_t b) {
      bench::progress(d.name.c_str(), a, b);
    };
    const auto before =
        fault::simulate_faults(kit.lowered().netlist, stim, kit.faults(),
                               opt);
    std::printf("  %-5s %22s %8zu %10zu\n", d.name.c_str(),
                "mixed LFSR-1/M", stim.size(), before.missed());

    const auto topoff = analysis::targeted_test_sequence(d);
    stim.insert(stim.end(), topoff.begin(), topoff.end());
    const auto zones = analysis::zone_targeted_sequence(d);
    stim.insert(stim.end(), zones.begin(), zones.end());
    const auto after =
        fault::simulate_faults(kit.lowered().netlist, stim, kit.faults(),
                               opt);
    std::printf("  %-5s %22s %8zu %10zu\n", d.name.c_str(),
                "mixed + targeted", stim.size(), after.missed());
    std::printf("        remaining misses are near-redundant (activation "
                "needs patterns outside any single window) or "
                "correlation-limited.\n");
  }
  return 0;
}
