#include <cmath>
#include <gtest/gtest.h>

#include "analysis/distribution.hpp"
#include "analysis/lfsr_model.hpp"
#include "common/xoshiro.hpp"
#include "designs/registry.hpp"
#include "dsp/convolution.hpp"
#include "dsp/stats.hpp"
#include "rtl/sim.hpp"
#include "tpg/generators.hpp"

namespace fdbist::analysis {
namespace {

TEST(Distribution, SingleBernoulliWeightIsTwoSpikes) {
  const auto d = predict_distribution({0.5}, SourceModel::Bernoulli01);
  // Mass 1/2 near 0 and 1/2 near 0.5.
  EXPECT_NEAR(d.mass(-0.05, 0.05), 0.5, 0.02);
  EXPECT_NEAR(d.mass(0.45, 0.55), 0.5, 0.02);
  EXPECT_NEAR(d.mass(0.1, 0.4), 0.0, 0.02);
}

TEST(Distribution, TwoBernoulliWeights) {
  const auto d = predict_distribution({0.5, 0.25}, SourceModel::Bernoulli01);
  // Four equally likely sums: 0, 0.25, 0.5, 0.75.
  for (const double v : {0.0, 0.25, 0.5, 0.75})
    EXPECT_NEAR(d.mass(v - 0.05, v + 0.05), 0.25, 0.02) << v;
}

TEST(Distribution, BernoulliMeanAndSigma) {
  const std::vector<double> w{0.5, -0.25, 0.125};
  const auto d = predict_distribution(w, SourceModel::Bernoulli01);
  double mean = 0.0;
  double var = 0.0;
  for (const double wi : w) {
    mean += 0.5 * wi;
    var += 0.25 * wi * wi;
  }
  EXPECT_NEAR(d.mean(), mean, 0.01);
  EXPECT_NEAR(d.std_dev(), std::sqrt(var), 0.01);
}

TEST(Distribution, UniformSingleWeightIsBox) {
  const auto d = predict_distribution({0.5}, SourceModel::UniformSymmetric);
  // Uniform over [-0.5, 0.5): density 1 inside, 0 outside.
  EXPECT_NEAR(d.mass(-0.5, 0.5), 1.0, 0.02);
  EXPECT_NEAR(d.mass(-0.4, 0.4), 0.8, 0.03);
  EXPECT_NEAR(d.mass(0.6, 1.0), 0.0, 0.01);
}

TEST(Distribution, UniformTwoWeightsIsTrapezoid) {
  const auto d =
      predict_distribution({0.5, 0.25}, SourceModel::UniformSymmetric);
  const double var = (0.25 + 0.0625) / 3.0;
  EXPECT_NEAR(d.std_dev(), std::sqrt(var), 0.01);
  EXPECT_NEAR(d.mean(), 0.0, 0.01);
  // Flat top between -0.25 and 0.25.
  const double top1 = d.mass(-0.2, -0.1);
  const double top2 = d.mass(0.1, 0.2);
  EXPECT_NEAR(top1, top2, 0.01);
}

TEST(Distribution, CentralLimitForManyWeights) {
  // Many similar weights: the density approaches a Gaussian; check the
  // 1-sigma mass ~ 68%.
  std::vector<double> w(40, 0.05);
  const auto d = predict_distribution(w, SourceModel::UniformSymmetric);
  const double sigma = d.std_dev();
  EXPECT_NEAR(d.mass(-sigma, sigma), 0.683, 0.03);
}

TEST(Distribution, MatchesEmpiricalSampling) {
  const std::vector<double> w{0.4, -0.3, 0.2, 0.1, -0.05};
  DistributionOptions opt;
  opt.cells = 256; // coarse enough that 60k samples resolve each cell
  const auto pred =
      predict_distribution(w, SourceModel::UniformSymmetric, opt);
  Xoshiro256 rng(33);
  std::vector<double> samples;
  for (int i = 0; i < 60000; ++i) {
    double s = 0.0;
    for (const double wi : w) s += wi * (2.0 * rng.uniform() - 1.0);
    samples.push_back(s);
  }
  const auto emp = empirical_density(samples, pred);
  EXPECT_LT(density_distance(pred, emp), 0.04);
}

TEST(Distribution, RejectsBadInputs) {
  EXPECT_THROW(predict_distribution({}, SourceModel::Bernoulli01),
               precondition_error);
  DistributionOptions opt;
  opt.cells = 4;
  EXPECT_THROW(predict_distribution({0.5}, SourceModel::Bernoulli01, opt),
               precondition_error);
  const auto d = predict_distribution({0.5}, SourceModel::Bernoulli01);
  EXPECT_THROW(empirical_density({}, d), precondition_error);
}

TEST(Distribution, DensityIntegratesToOne) {
  for (const auto model :
       {SourceModel::Bernoulli01, SourceModel::UniformSymmetric}) {
    const auto d = predict_distribution({0.3, 0.2, -0.15}, model);
    double total = 0.0;
    for (const double v : d.density) total += v * d.step;
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(Distribution, Figure8TheoryMatchesTap20Histogram) {
  // Paper Figure 8: predicted LFSR-1 amplitude distribution at tap 20 of
  // the lowpass filter vs the simulation histogram.
  const auto d = designs::make_design("LP");
  const auto tap = d.tap_accumulators[20];
  const auto& h = d.linear[std::size_t(tap)].impulse;
  const auto g = lfsr1_impulse_model(12);
  const auto w = dsp::convolve(h, g);
  DistributionOptions opt;
  opt.cells = 256;
  const auto theory = predict_distribution(w, SourceModel::Bernoulli01, opt);

  tpg::Lfsr1 gen(12, 1, tpg::ShiftDirection::MsbToLsb);
  const auto stim = gen.generate_raw(4095);
  rtl::Simulator sim(d.graph);
  const auto trace = sim.run_probe(stim, tap);
  const auto actual = empirical_density(trace, theory);

  EXPECT_LT(density_distance(theory, actual), 0.12);
  EXPECT_NEAR(theory.std_dev(), dsp::std_dev(trace),
              0.3 * theory.std_dev());
}

TEST(Distribution, Figure9IdealizedMatchesDecorrelated) {
  // Paper Figure 9: an idealized independent-vector generator predicts
  // the LFSR-D histogram fairly well.
  const auto d = designs::make_design("LP");
  const auto tap = d.tap_accumulators[20];
  const auto& h = d.linear[std::size_t(tap)].impulse;
  DistributionOptions opt;
  opt.cells = 256;
  const auto theory =
      predict_distribution(h, SourceModel::UniformSymmetric, opt);

  tpg::DecorrelatedLfsr gen(12, 1);
  const auto stim = gen.generate_raw(4095);
  rtl::Simulator sim(d.graph);
  const auto trace = sim.run_probe(stim, tap);
  const auto actual = empirical_density(trace, theory);
  // "not matching as closely as the previous distribution, still fairly
  // well" — allow a looser budget than Figure 8.
  EXPECT_LT(density_distance(theory, actual), 0.2);
}

} // namespace
} // namespace fdbist::analysis
