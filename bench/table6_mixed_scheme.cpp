// Reproduces Table 6: missed faults of the mixed LFSR-1/LFSR-M scheme
// (4k normal-mode + 4k maximum-variance vectors) on the lowpass and
// highpass designs, plus the paper's headline improvement factors over
// single-mode schemes at the same 8k budget.
#include <cstdio>

#include "bench/bench_util.hpp"
#include "bist/kit.hpp"
#include "designs/registry.hpp"
#include "tpg/generators.hpp"

int main() {
  using namespace fdbist;
  const std::size_t half = bench::budget(4096);
  const std::size_t total = 2 * half;

  bench::heading("Table 6: mixed LFSR-1/LFSR-M misses at 8k (paper vs measured)");
  std::printf("  paper:  LP 148 misses (0.81 per adder), HP 137 (0.40)\n");
  std::printf("  paper conclusion: 2.2-2.6x fewer untested faults than the "
              "best single mode,\n"
              "  up to 3.5x over basic LFSR testing.\n\n");

  for (const char* name : {"LP", "HP"}) {
    const auto d = designs::make_design(name);
    bist::BistKit kit(d);
    const double adders = double(d.stats().adders);

    auto run = [&](tpg::Generator& gen) {
      return bench::evaluate(kit, gen, total, d.name + "/" + gen.name());
    };

    tpg::SwitchedLfsr mixed(12, half, 1);
    tpg::Lfsr1 pure1(12, 1);
    tpg::DecorrelatedLfsr pured(12, 1);
    tpg::MaxVarianceLfsr purem(12, 1);
    const auto rm = run(mixed);
    const auto r1 = run(pure1);
    const auto rd = run(pured);
    const auto rv = run(purem);

    std::printf("\n  %s (%zu vectors each):\n", d.name.c_str(), total);
    std::printf("    %-22s %8s %12s\n", "scheme", "misses", "normalized");
    auto row = [&](const char* name, std::size_t missed) {
      std::printf("    %-22s %8zu %12.2f\n", name, missed,
                  double(missed) / adders);
    };
    row("mixed LFSR-1 -> LFSR-M", rm.missed());
    row("LFSR-1 only", r1.missed());
    row("LFSR-D only", rd.missed());
    row("LFSR-M only", rv.missed());

    const std::size_t best_single =
        std::min({r1.missed(), rd.missed(), rv.missed()});
    std::printf("    improvement: %.1fx over best single mode, %.1fx over "
                "LFSR-1\n",
                double(best_single) / double(rm.missed()),
                double(r1.missed()) / double(rm.missed()));
  }
  return 0;
}
