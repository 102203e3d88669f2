// Amplitude-distribution prediction at internal datapath nodes (paper
// Section 7.2, Figures 8 and 9).
//
// A node's value is sum_i w[i] * x[n-i] for the node's impulse response w
// and source samples x. For statistically independent sources, the exact
// probability density is the convolution of the per-tap densities. Two
// source models are supported:
//   - Bernoulli01: x in {0, 1} equiprobable — the LFSR linear model's
//     driving source (use w = h_k * g to predict an LFSR-1 distribution);
//   - UniformSymmetric: x uniform in [-1, 1) — the idealized generator
//     producing statistically independent vectors (Figure 9's theory
//     curve), a good model of LFSR-D.
// Densities are computed numerically on a uniform amplitude grid.
#pragma once

#include <vector>

namespace fdbist::analysis {

enum class SourceModel { Bernoulli01, UniformSymmetric };

/// A probability density sampled on a uniform grid.
struct DensityEstimate {
  double lo = 0.0;   ///< amplitude of the first grid cell's left edge
  double step = 0.0; ///< grid cell width
  std::vector<double> density; ///< pdf value per cell (integrates to ~1)

  double center(std::size_t i) const {
    return lo + (static_cast<double>(i) + 0.5) * step;
  }
  /// Probability mass in [a, b).
  double mass(double a, double b) const;
  double mean() const;
  double std_dev() const;
};

struct DistributionOptions {
  std::size_t cells = 1024; ///< grid resolution
};

/// Predict the density of sum_i w[i] * x_i for the given source model,
/// on a grid whose half-range is 1.1 times the sum's worst case.
DensityEstimate predict_distribution(const std::vector<double>& w,
                                     SourceModel model,
                                     const DistributionOptions& opt = {});

/// Re-bin a set of samples onto the same grid as `ref` for side-by-side
/// comparison (Figures 8/9 overlay simulation histograms on theory).
DensityEstimate empirical_density(const std::vector<double>& samples,
                                  const DensityEstimate& ref);

/// Total-variation distance between two densities on identical grids
/// (0 = identical).
double density_distance(const DensityEstimate& a, const DensityEstimate& b);

} // namespace fdbist::analysis
