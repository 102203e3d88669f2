// Signal statistics: moments, histograms, correlation. Used by the
// frequency-domain analysis (Section 7 of the paper) and by tests.
#pragma once

#include <cstdint>
#include <vector>

namespace fdbist::dsp {

double mean(const std::vector<double>& x);
double variance(const std::vector<double>& x); ///< population variance
double std_dev(const std::vector<double>& x);

/// Pearson correlation coefficient of two equal-length signals.
double correlation(const std::vector<double>& x, const std::vector<double>& y);

/// Lag-k sample autocorrelation (biased, normalized by N and variance).
double autocorrelation(const std::vector<double>& x, std::size_t lag);

/// A fixed-range histogram.
struct Histogram {
  double lo = -1.0;
  double hi = 1.0;
  std::vector<std::uint64_t> counts;
  std::uint64_t total = 0;

  Histogram(double lo_, double hi_, std::size_t bins);
  void add(double v);
  void add_all(const std::vector<double>& xs);
  double bin_center(std::size_t i) const;
  double bin_width() const;
  /// Probability-density estimate for bin i (counts / total / width).
  double density(std::size_t i) const;
};

} // namespace fdbist::dsp
