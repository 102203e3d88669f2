// Reproduces Figure 1 and Table 2: the difficult-test zones of a
// variance-mismatched adder, and which of the T1/T2/T5/T6 classes each
// generator actually asserts at tap 20 of the lowpass design.
#include <cmath>
#include <cstdio>

#include "analysis/test_zones.hpp"
#include "analysis/variance.hpp"
#include "bench/bench_util.hpp"
#include "designs/registry.hpp"
#include "dsp/stats.hpp"
#include "rtl/sim.hpp"
#include "tpg/generators.hpp"

int main() {
  using namespace fdbist;
  const auto d = designs::make_design("LP");
  const auto tap = d.tap_accumulators[20];
  const std::size_t vectors = bench::budget(4095);

  bench::heading("Figure 1: difficult-test zones of the tap-20 adder");
  // Zone width ~ secondary-input magnitude: bound it by the secondary's
  // L1 norm relative to the adder's full scale.
  const rtl::Node& nd = d.graph.node(tap);
  const auto gains = rtl::variance_gains(d.linear);
  const auto sec =
      gains[std::size_t(nd.a)] >= gains[std::size_t(nd.b)] ? nd.b : nd.a;
  const double full =
      std::ldexp(1.0, nd.fmt.width - 1 - nd.fmt.frac);
  double b_max = d.linear[std::size_t(sec)].l1_bound / full;
  if (b_max > 0.5) b_max = 0.5;
  std::printf("  secondary-input magnitude bound: %.4f of full scale\n\n",
              b_max);
  std::printf("  %-5s %10s %10s\n", "test", "zone lo", "zone hi");
  for (const auto& z : analysis::primary_input_zones(b_max))
    std::printf("  %-5s %10.4f %10.4f\n",
                analysis::difficult_test_name(z.test), z.lo, z.hi);

  bench::heading("Table 2 assertion counts at tap 20 (per generator)");
  std::printf("  %-8s %7s %7s %7s %7s %7s %7s %7s %7s  %s\n", "gen", "T1a",
              "T1b", "T2a", "T2b", "T5a", "T5b", "T6a", "T6b", "missing");
  for (const auto k :
       {tpg::GeneratorKind::Lfsr1, tpg::GeneratorKind::LfsrD,
        tpg::GeneratorKind::LfsrM, tpg::GeneratorKind::Ramp}) {
    auto gen = tpg::make_generator(k, 12);
    const auto stim = gen->generate_raw(vectors);
    const auto c = analysis::monitor_test_zones(d, stim, {tap}).front();
    std::printf("  %-8s", tpg::kind_name(k));
    for (const auto v : c.counts) std::printf(" %7llu",
                                              (unsigned long long)v);
    std::printf("  %d/6\n", c.missing_classes());
  }
  bench::note("");
  bench::note("T2b/T5b are overflow classes: unreachable by construction "
              "under conservative scaling (near-redundant). T1 at tap 20 "
              "is only asserted by high-variance sequences — the paper's "
              "Figure 3 fault is detectable only through T1.");
  return 0;
}
