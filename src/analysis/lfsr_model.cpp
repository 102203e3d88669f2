#include "analysis/lfsr_model.hpp"

#include <cmath>
#include <numbers>

#include "common/check.hpp"
#include "dsp/convolution.hpp"

namespace fdbist::analysis {

std::vector<double> lfsr1_impulse_model(int width) {
  FDBIST_REQUIRE(width >= 2 && width <= 62, "LFSR width out of range");
  std::vector<double> g(static_cast<std::size_t>(width));
  g[0] = -1.0;
  for (int n = 1; n < width; ++n)
    g[static_cast<std::size_t>(n)] = std::ldexp(1.0, -n);
  return g;
}

std::vector<double> lfsr1_power_spectrum(int width, std::size_t bins) {
  FDBIST_REQUIRE(bins >= 2, "need at least two spectrum bins");
  const auto g = lfsr1_impulse_model(width);
  const auto r = dsp::autocorrelation_sequence(g); // lag 0 at index N-1
  const std::size_t n = g.size();
  std::vector<double> psd(bins, 0.0);
  constexpr double sigma_x2 = 0.25; // 0/1 white noise, P{1} = 0.5
  for (std::size_t k = 0; k < bins; ++k) {
    const double f =
        0.5 * static_cast<double>(k) / static_cast<double>(bins - 1);
    double s = r[n - 1];
    for (std::size_t lag = 1; lag < n; ++lag)
      s += 2.0 * r[n - 1 + lag] *
           std::cos(2.0 * std::numbers::pi * f * static_cast<double>(lag));
    psd[k] = sigma_x2 * s;
  }
  return psd;
}

} // namespace fdbist::analysis
