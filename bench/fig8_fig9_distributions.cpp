// Reproduces Figures 8 and 9: amplitude distributions of the test signal
// at tap 20 of the lowpass filter.
//   Fig 8: Type 1 LFSR — linear-model theory (0/1 noise through h*g) vs
//          the simulation histogram.
//   Fig 9: decorrelated tests — idealized independent-vector theory vs
//          the LFSR-D simulation histogram.
#include <algorithm>
#include <cstdio>

#include "analysis/distribution.hpp"
#include "analysis/lfsr_model.hpp"
#include "bench/bench_util.hpp"
#include "designs/registry.hpp"
#include "dsp/convolution.hpp"
#include "rtl/sim.hpp"
#include "tpg/generators.hpp"

int main() {
  using namespace fdbist;
  const auto d = designs::make_design("LP");
  const auto tap = d.tap_accumulators[20];
  const auto& h = d.linear[std::size_t(tap)].impulse;
  const std::size_t vectors = bench::budget(4095);

  // Coarse display grid: 4k simulated samples per histogram need wide
  // bins to read well; the gtest suite validates on finer grids.
  analysis::DistributionOptions opt;
  opt.cells = 128;

  auto print_pair = [&](const analysis::DensityEstimate& theory,
                        const analysis::DensityEstimate& actual) {
    std::printf("  %-10s %12s %12s\n", "amplitude", "theory", "simulated");
    // Print the central region (where nearly all mass lives), 48 rows.
    const std::size_t n = theory.density.size();
    for (std::size_t i = n / 4; i < 3 * n / 4;
         i += std::max<std::size_t>(1, n / 64))
      std::printf("  %+10.4f %12.5f %12.5f\n", theory.center(i),
                  theory.density[i], actual.density[i]);
    std::printf("  theory sigma %.4f, simulated sigma %.4f, total-variation "
                "distance %.4f\n",
                theory.std_dev(), actual.std_dev(),
                analysis::density_distance(theory, actual));
  };

  {
    bench::heading("Figure 8: tap-20 distribution, Type 1 LFSR "
                   "(linear-model theory vs simulation)");
    const auto g = analysis::lfsr1_impulse_model(12);
    const auto w = dsp::convolve(h, g);
    const auto theory =
        analysis::predict_distribution(w, analysis::SourceModel::Bernoulli01,
                                       opt);
    tpg::Lfsr1 gen(12, 1, tpg::ShiftDirection::MsbToLsb);
    const auto stim = gen.generate_raw(vectors);
    rtl::Simulator sim(d.graph);
    const auto trace = sim.run_probe(stim, tap);
    print_pair(theory, analysis::empirical_density(trace, theory));
  }

  {
    bench::heading("Figure 9: tap-20 distribution, decorrelated tests "
                   "(idealized-generator theory vs LFSR-D simulation)");
    const auto theory = analysis::predict_distribution(
        h, analysis::SourceModel::UniformSymmetric, opt);
    tpg::DecorrelatedLfsr gen(12, 1);
    const auto stim = gen.generate_raw(vectors);
    rtl::Simulator sim(d.graph);
    const auto trace = sim.run_probe(stim, tap);
    print_pair(theory, analysis::empirical_density(trace, theory));
  }

  bench::note("");
  bench::note("paper: the Fig-8 histogram matches theory closely; the "
              "Fig-9 match is looser but still good, attesting to the "
              "decorrelator's efficacy.");
  return 0;
}
