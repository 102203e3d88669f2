#include "dsp/stats.hpp"

#include <cmath>

#include "common/check.hpp"

namespace fdbist::dsp {

double mean(const std::vector<double>& x) {
  if (x.empty()) return 0.0;
  double s = 0.0;
  for (double v : x) s += v;
  return s / static_cast<double>(x.size());
}

double variance(const std::vector<double>& x) {
  if (x.empty()) return 0.0;
  const double m = mean(x);
  double s = 0.0;
  for (double v : x) s += (v - m) * (v - m);
  return s / static_cast<double>(x.size());
}

double std_dev(const std::vector<double>& x) { return std::sqrt(variance(x)); }

double correlation(const std::vector<double>& x,
                   const std::vector<double>& y) {
  FDBIST_REQUIRE(x.size() == y.size() && !x.empty(),
                 "correlation needs equal-length, non-empty signals");
  const double mx = mean(x);
  const double my = mean(y);
  double sxy = 0.0;
  double sxx = 0.0;
  double syy = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double dx = x[i] - mx;
    const double dy = y[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx == 0.0 || syy == 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

double autocorrelation(const std::vector<double>& x, std::size_t lag) {
  FDBIST_REQUIRE(lag < x.size(), "lag exceeds signal length");
  const double m = mean(x);
  double num = 0.0;
  double den = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double d = x[i] - m;
    den += d * d;
    if (i + lag < x.size()) num += d * (x[i + lag] - m);
  }
  if (den == 0.0) return lag == 0 ? 1.0 : 0.0;
  return num / den;
}

Histogram::Histogram(double lo_, double hi_, std::size_t bins)
    : lo(lo_), hi(hi_), counts(bins, 0) {
  FDBIST_REQUIRE(hi_ > lo_ && bins >= 1, "invalid histogram range/bins");
}

void Histogram::add(double v) {
  const double t = (v - lo) / (hi - lo);
  auto idx = static_cast<std::int64_t>(t * static_cast<double>(counts.size()));
  if (idx < 0) idx = 0;
  if (idx >= static_cast<std::int64_t>(counts.size()))
    idx = static_cast<std::int64_t>(counts.size()) - 1;
  ++counts[static_cast<std::size_t>(idx)];
  ++total;
}

void Histogram::add_all(const std::vector<double>& xs) {
  for (double v : xs) add(v);
}

double Histogram::bin_center(std::size_t i) const {
  return lo + (static_cast<double>(i) + 0.5) * bin_width();
}

double Histogram::bin_width() const {
  return (hi - lo) / static_cast<double>(counts.size());
}

double Histogram::density(std::size_t i) const {
  if (total == 0) return 0.0;
  return static_cast<double>(counts[i]) /
         (static_cast<double>(total) * bin_width());
}

} // namespace fdbist::dsp
