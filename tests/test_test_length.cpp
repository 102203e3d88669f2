#include <cmath>
#include <gtest/gtest.h>

#include "analysis/test_length.hpp"
#include "designs/registry.hpp"
#include "tpg/generators.hpp"

namespace fdbist::analysis {
namespace {

const rtl::FilterDesign& lp() {
  static const auto d = designs::make_design("LP");
  return d;
}

double per_cycle(const std::vector<ZoneProbability>& zp, DifficultTest t) {
  for (const auto& z : zp)
    if (z.test == t) return z.per_cycle;
  return -1.0;
}

TEST(TestLength, OverflowClassesImpossible) {
  const auto zp = predict_zone_probabilities(
      lp(), lp().tap_accumulators[20], tpg::GeneratorKind::LfsrD);
  EXPECT_EQ(per_cycle(zp, DifficultTest::T2b), 0.0);
  EXPECT_EQ(per_cycle(zp, DifficultTest::T5b), 0.0);
  for (const auto& z : zp) {
    if (z.per_cycle == 0.0) {
      EXPECT_TRUE(std::isinf(z.expected_vectors));
    }
  }
}

TEST(TestLength, Lfsr1StarvesT1AtTap20) {
  // The paper's core quantitative claim: with the attenuated LFSR-1
  // signal, T1's expected test length explodes (excess headroom), while
  // the decorrelated generator brings it into reach.
  const auto tap = lp().tap_accumulators[20];
  const auto p1 =
      predict_zone_probabilities(lp(), tap, tpg::GeneratorKind::Lfsr1);
  const auto pd =
      predict_zone_probabilities(lp(), tap, tpg::GeneratorKind::LfsrD);
  const double t1_lfsr1 = per_cycle(p1, DifficultTest::T1a) +
                          per_cycle(p1, DifficultTest::T1b);
  const double t1_lfsrd = per_cycle(pd, DifficultTest::T1a) +
                          per_cycle(pd, DifficultTest::T1b);
  // LFSR-1: sigma ~0.03 against a 0.5 threshold -> astronomically rare.
  EXPECT_LT(t1_lfsr1, 1e-12);
  EXPECT_GT(t1_lfsrd, t1_lfsr1);
}

TEST(TestLength, VarianceMismatchTestsAreEasier) {
  // T2/T5 (zones near zero) stay reachable even under attenuation —
  // "if these tests are missed, it is usually due only to a
  // variance-mismatch problem" (paper Section 4.2).
  const auto tap = lp().tap_accumulators[20];
  const auto p1 =
      predict_zone_probabilities(lp(), tap, tpg::GeneratorKind::Lfsr1);
  const double t2t5 = per_cycle(p1, DifficultTest::T2a) +
                      per_cycle(p1, DifficultTest::T5a);
  const double t1t6 = per_cycle(p1, DifficultTest::T1a) +
                      per_cycle(p1, DifficultTest::T1b) +
                      per_cycle(p1, DifficultTest::T6a) +
                      per_cycle(p1, DifficultTest::T6b);
  EXPECT_GT(t2t5, 1000.0 * std::max(t1t6, 1e-30));
  // Expected length for T2a is "a few thousand vectors" at most.
  for (const auto& z : p1) {
    if (z.test == DifficultTest::T2a) {
      EXPECT_LT(z.expected_vectors, 5000.0);
    }
  }
}

TEST(TestLength, PredictionMatchesMeasurementWithinFactor) {
  // On an adder that asserts T2a/T5a often, the predicted per-cycle
  // rates must land within a small factor of the simulated rates.
  const auto tap = lp().tap_accumulators[20];
  auto gen = tpg::make_generator(tpg::GeneratorKind::LfsrD, 12);
  const auto stim = gen->generate_raw(4095);
  const auto measured = measure_zone_probabilities(lp(), tap, stim);
  const auto predicted =
      predict_zone_probabilities(lp(), tap, tpg::GeneratorKind::LfsrD);
  for (const auto t : {DifficultTest::T2a, DifficultTest::T5a}) {
    const double m = per_cycle(measured, t);
    const double p = per_cycle(predicted, t);
    ASSERT_GT(m, 0.0);
    ASSERT_GT(p, 0.0);
    EXPECT_LT(std::abs(std::log2(m / p)), 2.0)
        << difficult_test_name(t) << ": measured " << m << " predicted "
        << p;
  }
}

TEST(TestLength, MeasureAgreesWithMonitorCounts) {
  const auto& d = lp();
  const auto tap = d.tap_accumulators[20];
  auto gen = tpg::make_generator(tpg::GeneratorKind::LfsrM, 12);
  const auto stim = gen->generate_raw(1024);
  const auto rates = measure_zone_probabilities(d, tap, stim);
  const auto counts = monitor_test_zones(d, stim, {tap}).front();
  for (const auto& z : rates)
    EXPECT_DOUBLE_EQ(z.per_cycle,
                     double(counts.count(z.test)) / double(counts.cycles));
}

TEST(TestLength, RejectsUnsupportedModels) {
  EXPECT_THROW(predict_zone_probabilities(lp(), lp().tap_accumulators[20],
                                          tpg::GeneratorKind::LfsrM),
               precondition_error);
  EXPECT_THROW(predict_zone_probabilities(lp(), lp().input,
                                          tpg::GeneratorKind::LfsrD),
               precondition_error);
}

} // namespace
} // namespace fdbist::analysis
