#include "dsp/window.hpp"

#include <cmath>
#include <numbers>

#include "common/check.hpp"

namespace fdbist::dsp {

double bessel_i0(double x) {
  // Power series: I0(x) = sum ((x/2)^k / k!)^2. Converges quickly for the
  // argument range used by Kaiser windows (|x| < ~30).
  const double half = x / 2.0;
  double term = 1.0;
  double sum = 1.0;
  for (int k = 1; k < 64; ++k) {
    term *= half / k;
    const double add = term * term;
    sum += add;
    if (add < sum * 1e-18) break;
  }
  return sum;
}

std::vector<double> make_window(WindowKind kind, std::size_t n, double beta) {
  FDBIST_REQUIRE(n >= 1, "window length must be >= 1");
  std::vector<double> w(n, 1.0);
  if (n == 1) return w;
  const double m = static_cast<double>(n - 1);
  constexpr double two_pi = 2.0 * std::numbers::pi;
  switch (kind) {
  case WindowKind::Rectangular:
    break;
  case WindowKind::Hann:
    for (std::size_t i = 0; i < n; ++i)
      w[i] = 0.5 - 0.5 * std::cos(two_pi * i / m);
    break;
  case WindowKind::Hamming:
    for (std::size_t i = 0; i < n; ++i)
      w[i] = 0.54 - 0.46 * std::cos(two_pi * i / m);
    break;
  case WindowKind::Blackman:
    for (std::size_t i = 0; i < n; ++i)
      w[i] = 0.42 - 0.5 * std::cos(two_pi * i / m) +
             0.08 * std::cos(2.0 * two_pi * i / m);
    break;
  case WindowKind::Kaiser: {
    const double denom = bessel_i0(beta);
    for (std::size_t i = 0; i < n; ++i) {
      const double t = 2.0 * i / m - 1.0; // in [-1, 1]
      w[i] = bessel_i0(beta * std::sqrt(1.0 - t * t)) / denom;
    }
    break;
  }
  }
  return w;
}

} // namespace fdbist::dsp
