// Reproduces Table 3: frequency-domain compatibility of the five test
// generators with the three filter types, computed from measured
// generator spectra via sigma_y^2 = (1/L) sum |G|^2 |H|^2 (paper §6.1).
#include <cstdio>

#include "analysis/compatibility.hpp"
#include "bench/bench_util.hpp"
#include "designs/registry.hpp"

int main() {
  using namespace fdbist;
  bench::heading("Table 3: generator/filter compatibility (paper vs measured)");
  std::printf("  paper:            LP   BP   HP\n");
  std::printf("        LFSR-1      -    ±    +\n");
  std::printf("        LFSR-2      ±    ±    +\n");
  std::printf("        LFSR-D      +    +    +\n");
  std::printf("        LFSR-M      +    +    +\n");
  std::printf("        Ramp        +    -    -\n\n");

  const std::vector<rtl::FilterDesign> designs = {
      designs::make_design("LP"), designs::make_design("BP"),
      designs::make_design("HP")};
  const auto rows = analysis::compatibility_matrix(designs);

  std::printf("  measured rating (spectral efficiency in parens):\n");
  std::printf("  %-8s", "");
  for (const auto& d : designs) std::printf("   %-14s", d.name.c_str());
  std::printf("\n");
  for (const auto& row : rows) {
    std::printf("  %-8s", row.generator.c_str());
    for (const auto& r : row.per_design)
      std::printf("   %-2s (%8.4f) ", analysis::compatibility_symbol(r.rating),
                  r.efficiency);
    std::printf("\n");
  }

  std::printf("\n  estimated output variance sigma_y^2 per pair:\n");
  std::printf("  %-8s", "");
  for (const auto& d : designs) std::printf("  %-10s", d.name.c_str());
  std::printf("\n");
  for (const auto& row : rows) {
    std::printf("  %-8s", row.generator.c_str());
    for (const auto& r : row.per_design) std::printf("  %.2e", r.sigma_y2);
    std::printf("\n");
  }

  std::printf("\n  recommended generator per design (cheapest +-rated):\n");
  for (const auto& d : designs)
    std::printf("    %s -> %s\n", d.name.c_str(),
                tpg::kind_name(analysis::recommend_generator(d)));
  bench::note("");
  bench::note("note: the paper rates LFSR-1/BP '±' (design-dependent); our "
              "BP passband sits above the rolloff, so it measures '+'.");
  return 0;
}
