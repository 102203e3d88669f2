// Reproduces Figures 6 and 7: the test signal observed at tap 20 of the
// 60-tap lowpass filter under (6) the plain Type 1 LFSR — severely
// attenuated, paper sigma 0.036 — and (7) the decorrelated LFSR — paper
// sigma 0.121, 3.4x higher. Also prints the Eqn-1 variance predictions
// and the untestable-upper-bit estimates (paper: four bits below the MSB
// untested with the LFSR, one with the decorrelator).
#include <cmath>
#include <cstdio>

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
  const auto fmt = d.graph.node(tap).fmt;
  const double full_scale = std::ldexp(1.0, fmt.width - 1 - fmt.frac);
  const std::size_t vectors = bench::budget(4096);

  auto probe = [&](tpg::Generator& gen) {
    gen.reset();
    const auto stim = gen.generate_raw(vectors);
    rtl::Simulator sim(d.graph);
    return sim.run_probe(stim, tap);
  };

  auto render = [&](const std::vector<double>& w, const char* title,
                    double paper_sigma) {
    bench::heading(title);
    const double sigma = dsp::std_dev(w);
    std::printf("  measured sigma = %.4f   (paper: %.3f)   adder range "
                "[-%.3g, %.3g)\n\n",
                sigma, paper_sigma, full_scale, full_scale);
    // ASCII waveform of a 150-sample window, scaled to the adder range.
    constexpr int kCols = 61;
    for (std::size_t n = 100; n < 250; n += 3) {
      const double t = (w[n] / full_scale + 1.0) / 2.0;
      int pos = static_cast<int>(t * (kCols - 1));
      if (pos < 0) pos = 0;
      if (pos >= kCols) pos = kCols - 1;
      std::printf("  %4zu %+9.4f |", n, w[n]);
      for (int c = 0; c < kCols; ++c)
        std::putchar(c == pos ? '*' : (c == kCols / 2 ? '.' : ' '));
      std::printf("|\n");
    }
  };

  auto lfsr1 = tpg::make_generator(tpg::GeneratorKind::Lfsr1, 12);
  render(probe(*lfsr1),
         "Figure 6: tap-20 signal, Type 1 LFSR (attenuated)", 0.036);

  auto lfsrd = tpg::make_generator(tpg::GeneratorKind::LfsrD, 12);
  render(probe(*lfsrd),
         "Figure 7: tap-20 signal, decorrelated LFSR", 0.121);

  bench::heading("Eqn-1 variance analysis at tap 20");
  const auto p1 = analysis::predict_sigma_lfsr1(d, 12);
  const auto pd = analysis::predict_sigma_white(d, 1.0 / 3.0);
  std::printf("  predicted sigma: LFSR-1 %.4f, LFSR-D %.4f (ratio %.2fx; "
              "paper observed 3.4x)\n",
              p1[std::size_t(tap)], pd[std::size_t(tap)],
              pd[std::size_t(tap)] / p1[std::size_t(tap)]);

  auto upper_bits = [&](const std::vector<double>& pred) {
    const auto problems = analysis::find_attenuation_problems(d, pred, 0.5);
    for (const auto& p : problems)
      if (p.node == tap) return p.untestable_upper_bits;
    return 0;
  };
  std::printf("  estimated untestable upper bits at tap 20: LFSR-1 %d "
              "(paper: 4), LFSR-D %d (paper: 1)\n",
              upper_bits(p1), upper_bits(pd));
  return 0;
}
