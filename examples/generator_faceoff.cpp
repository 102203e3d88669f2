// Generator face-off: evaluate every standard BIST pattern generator —
// plus the paper's mixed scheme — against one filter, end to end.
//
//   $ ./build/examples/generator_faceoff [lp|bp|hp] [vectors]
//
// Prints, per generator: spectral compatibility rating, predicted output
// variance, measured fault coverage, and missed-fault count, closing
// with the mixed LFSR-1/LFSR-M scheme of paper Section 9.
#include <cstdio>
#include <cstring>
#include <string>

#include "analysis/compatibility.hpp"
#include "bist/kit.hpp"
#include "designs/registry.hpp"
#include "tpg/generators.hpp"

int main(int argc, char** argv) {
  using namespace fdbist;

  const char* which = "LP";
  if (argc > 1 && std::strcmp(argv[1], "bp") == 0)
    which = "BP";
  else if (argc > 1 && std::strcmp(argv[1], "hp") == 0)
    which = "HP";
  const std::size_t vectors =
      argc > 2 ? std::stoul(argv[2]) : std::size_t{2048};

  const auto design = designs::make_design(which);
  std::printf("== generator face-off on the %s reference design "
              "(%zu vectors) ==\n\n",
              design.name.c_str(), vectors);

  bist::BistKit kit(design);
  const auto h = design.quantized_impulse_response();

  std::printf("  %-8s %6s %12s %10s %8s\n", "gen", "compat", "sigma_y^2",
              "coverage", "missed");
  for (const auto k :
       {tpg::GeneratorKind::Lfsr1, tpg::GeneratorKind::Lfsr2,
        tpg::GeneratorKind::LfsrD, tpg::GeneratorKind::LfsrM,
        tpg::GeneratorKind::Ramp}) {
    auto gen = tpg::make_generator(k, 12);
    const auto compat = analysis::rate_compatibility(*gen, h);
    const auto report = kit.evaluate(*gen, vectors);
    std::printf("  %-8s %6s %12.3e %9.2f%% %8zu\n", tpg::kind_name(k),
                analysis::compatibility_symbol(compat.rating),
                compat.sigma_y2, 100 * report.coverage(), report.missed());
  }

  tpg::SwitchedLfsr mixed(12, vectors / 2, 1);
  const auto rm = kit.evaluate(mixed, vectors);
  std::printf("  %-8s %6s %12s %9.2f%% %8zu   <- paper Section 9\n",
              "LFSR-1/M", "", "", 100 * rm.coverage(), rm.missed());

  std::printf("\n  frequency-domain recommendation: %s\n",
              tpg::kind_name(analysis::recommend_generator(design)));
  return 0;
}
