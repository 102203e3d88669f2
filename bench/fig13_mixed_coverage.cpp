// Reproduces Figure 13: the advantage of combining test generators on
// the lowpass filter — a Type 1 LFSR curve, a maximum-variance LFSR
// curve, and the switched scheme (normal mode, then maximum-variance
// mode after 2k vectors).
#include <cstdio>

#include "bench/bench_util.hpp"
#include "bist/kit.hpp"
#include "designs/registry.hpp"
#include "tpg/generators.hpp"

int main() {
  using namespace fdbist;
  const std::size_t vectors = bench::budget(4096);
  const std::size_t switch_at = vectors / 2; // paper: 2k of 4k shown

  const auto d = designs::make_design("LP");
  bist::BistKit kit(d);

  bench::heading("Figure 13: mixed-mode advantage on the lowpass filter");

  std::vector<std::size_t> checkpoints;
  for (std::size_t v = 64; v <= vectors; v += vectors / 16)
    checkpoints.push_back(v);

  auto curve_of = [&](tpg::Generator& gen, const char* label) {
    const auto report = bench::evaluate(kit, gen, vectors, label);
    return report.fault_result.coverage_at(checkpoints);
  };

  tpg::Lfsr1 pure1(12, 1);
  tpg::MaxVarianceLfsr purem(12, 1);
  tpg::SwitchedLfsr mixed(12, switch_at, 1);
  const auto c1 = curve_of(pure1, "LFSR-1");
  const auto cm = curve_of(purem, "LFSR-M");
  const auto cx = curve_of(mixed, "mixed");

  std::printf("  (switch to maximum-variance mode at vector %zu)\n\n",
              switch_at);
  std::printf("  %8s %9s %9s %12s\n", "vectors", "LFSR-1", "LFSR-M",
              "mixed 1->M");
  for (std::size_t ci = 0; ci < checkpoints.size(); ++ci)
    std::printf("  %8zu %9.3f %9.3f %12.3f\n", checkpoints[ci],
                100.0 * c1[ci], 100.0 * cm[ci], 100.0 * cx[ci]);

  bench::note("");
  bench::note("expected shape: the mixed curve tracks LFSR-1 until the "
              "switch, then jumps above both single-mode curves as the "
              "max-variance phase exercises the starved upper bits.");
  return 0;
}
