// Ablation (paper Section 10): "use of longer test sequences (with
// larger LFSRs to avoid input cycling)". A 12-bit LFSR repeats after
// 2^12 - 1 = 4095 vectors, so running it for 8k vectors replays the same
// inputs and detects nothing new; widening the LFSR restores the value
// of the extra test length.
#include <cstdio>

#include "bench/bench_util.hpp"
#include "bist/kit.hpp"
#include "designs/registry.hpp"
#include "tpg/generators.hpp"

int main() {
  using namespace fdbist;
  const std::size_t vectors = 2 * bench::budget(4096);
  const auto d = designs::make_design("LP");
  bist::BistKit kit(d);

  bench::heading("Ablation: LFSR width vs input cycling (LP, " +
                 std::to_string(vectors) + " vectors)");
  std::printf("  a 12-bit LFSR cycles after 4095 vectors; wider LFSRs keep "
              "producing fresh patterns.\n\n");
  std::printf("  %-7s %10s %10s %10s\n", "width", "period", "missed",
              "coverage%");
  for (const int width : {12, 14, 16, 20}) {
    tpg::DecorrelatedLfsr gen(width, 1);
    const auto r =
        bench::evaluate(kit, gen, vectors, "w" + std::to_string(width));
    std::printf("  %-7d %10llu %10zu %10.2f\n", width,
                (unsigned long long)((1ull << width) - 1), r.missed(),
                100 * r.coverage());
  }
  bench::note("");
  bench::note("reading the result: if misses drop once the period exceeds "
              "the test length, coverage was cycling-limited; if they stay "
              "nearly flat (as here), the residual faults are "
              "pattern-resistance-limited and need the paper's other "
              "measures (mixed modes, deterministic top-off) rather than "
              "longer sequences.");
  return 0;
}
