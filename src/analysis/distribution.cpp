#include "analysis/distribution.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace fdbist::analysis {

namespace {

constexpr double kGridMargin = 1.10; // grid half-range / worst case

} // namespace

double DensityEstimate::mass(double a, double b) const {
  double m = 0.0;
  for (std::size_t i = 0; i < density.size(); ++i) {
    const double cl = lo + static_cast<double>(i) * step;
    const double cr = cl + step;
    const double ov = std::max(0.0, std::min(b, cr) - std::max(a, cl));
    m += density[i] * ov;
  }
  return m;
}

double DensityEstimate::mean() const {
  double m = 0.0;
  for (std::size_t i = 0; i < density.size(); ++i)
    m += center(i) * density[i] * step;
  return m;
}

double DensityEstimate::std_dev() const {
  const double mu = mean();
  double v = 0.0;
  for (std::size_t i = 0; i < density.size(); ++i) {
    const double d = center(i) - mu;
    v += d * d * density[i] * step;
  }
  return std::sqrt(std::max(v, 0.0));
}

DensityEstimate predict_distribution(const std::vector<double>& w,
                                     SourceModel model,
                                     const DistributionOptions& opt) {
  FDBIST_REQUIRE(!w.empty(), "empty weight vector");
  FDBIST_REQUIRE(opt.cells >= 16, "grid too coarse");

  // Worst-case amplitude of the sum decides the grid range.
  double l1 = 0.0;
  for (double v : w) l1 += std::abs(v);
  const double half = std::max(l1 * kGridMargin, 1e-9);
  const std::size_t n = opt.cells;
  const double step = 2.0 * half / static_cast<double>(n);

  // pmf[i] = probability the partial sum falls in cell i.
  std::vector<double> pmf(n, 0.0);
  pmf[n / 2] = 1.0; // delta at zero

  auto shift_cells = [&](double amount) {
    // Split a real-valued shift into an integer cell shift plus a
    // fractional part distributed between adjacent cells (linear
    // interpolation keeps the grid-quantization error unbiased).
    const double cells_f = amount / step;
    const double fl = std::floor(cells_f);
    const auto k = static_cast<std::int64_t>(fl);
    const double frac = cells_f - fl;
    std::vector<double> out(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      if (pmf[i] == 0.0) continue;
      const std::int64_t j0 = static_cast<std::int64_t>(i) + k;
      const std::int64_t j1 = j0 + 1;
      if (j0 >= 0 && j0 < static_cast<std::int64_t>(n))
        out[static_cast<std::size_t>(j0)] += pmf[i] * (1.0 - frac);
      if (j1 >= 0 && j1 < static_cast<std::int64_t>(n))
        out[static_cast<std::size_t>(j1)] += pmf[i] * frac;
    }
    return out;
  };

  for (const double wi : w) {
    if (wi == 0.0) continue;
    if (model == SourceModel::Bernoulli01) {
      // New pmf = 0.5 * pmf + 0.5 * shift(pmf, wi).
      auto shifted = shift_cells(wi);
      for (std::size_t i = 0; i < n; ++i)
        pmf[i] = 0.5 * pmf[i] + 0.5 * shifted[i];
    } else {
      // Convolve with a box of half-width |wi| via prefix sums (a
      // uniform source in [-1, 1) scaled by wi spans [-|wi|, |wi|)).
      const double bw = 2.0 * std::abs(wi);
      if (bw < step) continue; // narrower than a cell: negligible
      const auto box_cells = std::max<std::int64_t>(
          1, static_cast<std::int64_t>(std::llround(bw / step)));
      std::vector<double> prefix(n + 1, 0.0);
      for (std::size_t i = 0; i < n; ++i) prefix[i + 1] = prefix[i] + pmf[i];
      std::vector<double> out(n, 0.0);
      const double inv = 1.0 / static_cast<double>(box_cells);
      const std::int64_t hl = box_cells / 2;
      const std::int64_t hr = box_cells - hl;
      for (std::int64_t i = 0; i < static_cast<std::int64_t>(n); ++i) {
        const std::int64_t a =
            std::clamp<std::int64_t>(i - hr + 1, 0, std::int64_t(n));
        const std::int64_t b =
            std::clamp<std::int64_t>(i + hl + 1, 0, std::int64_t(n));
        out[static_cast<std::size_t>(i)] =
            (prefix[static_cast<std::size_t>(b)] -
             prefix[static_cast<std::size_t>(a)]) *
            inv;
      }
      pmf = std::move(out);
    }
  }

  DensityEstimate est;
  est.lo = -half;
  est.step = step;
  est.density.resize(n);
  double total = 0.0;
  for (double v : pmf) total += v;
  const double norm = total > 0.0 ? 1.0 / (total * step) : 0.0;
  for (std::size_t i = 0; i < n; ++i) est.density[i] = pmf[i] * norm;
  return est;
}

DensityEstimate empirical_density(const std::vector<double>& samples,
                                  const DensityEstimate& ref) {
  FDBIST_REQUIRE(!samples.empty(), "no samples");
  DensityEstimate est;
  est.lo = ref.lo;
  est.step = ref.step;
  est.density.assign(ref.density.size(), 0.0);
  const auto n = static_cast<std::int64_t>(ref.density.size());
  for (const double s : samples) {
    auto idx = static_cast<std::int64_t>(std::floor((s - est.lo) / est.step));
    idx = std::clamp<std::int64_t>(idx, 0, n - 1);
    est.density[static_cast<std::size_t>(idx)] += 1.0;
  }
  const double norm =
      1.0 / (static_cast<double>(samples.size()) * est.step);
  for (double& v : est.density) v *= norm;
  return est;
}

double density_distance(const DensityEstimate& a, const DensityEstimate& b) {
  FDBIST_REQUIRE(a.density.size() == b.density.size() &&
                     std::abs(a.step - b.step) < 1e-12,
                 "densities must share a grid");
  double tv = 0.0;
  for (std::size_t i = 0; i < a.density.size(); ++i)
    tv += std::abs(a.density[i] - b.density[i]) * a.step;
  return 0.5 * tv;
}

} // namespace fdbist::analysis
