// Reproduces Figure 4: power spectra of the five BIST pattern generators
// (12-bit versions), in dB over normalized frequency, plus the analytic
// Type 1 LFSR spectrum from the Section 7.1 linear model.
#include <array>
#include <cmath>
#include <cstdio>
#include <vector>

#include "analysis/compatibility.hpp"
#include "analysis/lfsr_model.hpp"
#include "bench/bench_util.hpp"
#include "dsp/spectrum.hpp"
#include "tpg/generators.hpp"

int main() {
  using namespace fdbist;
  bench::heading("Figure 4: test generator power spectra (dB vs frequency)");

  constexpr std::array kKinds = {
      tpg::GeneratorKind::Lfsr1, tpg::GeneratorKind::Lfsr2,
      tpg::GeneratorKind::LfsrD, tpg::GeneratorKind::LfsrM,
      tpg::GeneratorKind::Ramp};

  std::vector<std::vector<double>> psds;
  for (const auto k : kKinds) {
    auto gen = tpg::make_generator(k, 12);
    psds.push_back(analysis::generator_psd(*gen));
  }
  const auto analytic = analysis::lfsr1_power_spectrum(12, psds[0].size());
  const auto freqs = dsp::welch_frequencies(analysis::kPsdSegment);

  std::printf("  %-7s %8s %8s %8s %8s %8s %10s\n", "freq", "LFSR-1",
              "LFSR-2", "LFSR-D", "LFSR-M", "Ramp", "LFSR1(th)");
  for (std::size_t k = 0; k < freqs.size(); k += 4) {
    std::printf("  %-7.4f", freqs[k]);
    for (const auto& p : psds) {
      const auto db = dsp::to_db({p[k]}, -80.0);
      std::printf(" %8.2f", db[0]);
    }
    const auto adb = dsp::to_db({2.0 * analytic[k]}, -80.0);
    std::printf(" %10.2f\n", adb[0]);
  }

  // Average power (paper: LFSR variance 0.3333 = -4.77 dB).
  bench::note("");
  for (std::size_t i = 0; i < kKinds.size(); ++i) {
    auto gen = tpg::make_generator(kKinds[i], 12);
    const auto x = gen->generate_real(1 << 15);
    double p = 0.0;
    for (const double v : x) p += v * v;
    p /= double(x.size());
    std::printf("  %-7s average power %.4f (%.2f dB)%s\n",
                tpg::kind_name(kKinds[i]), p, 10.0 * std::log10(p),
                i < 3 ? "  [paper: 0.3333 = -4.77 dB]" : "");
  }
  return 0;
}
