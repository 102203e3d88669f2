#include <gtest/gtest.h>

#include "analysis/test_zones.hpp"
#include "designs/registry.hpp"
#include "tpg/generators.hpp"

namespace fdbist::analysis {
namespace {

std::uint32_t bit(DifficultTest t) {
  return std::uint32_t{1} << static_cast<std::uint32_t>(t);
}

TEST(Classify, Table2Conditions) {
  // One representative (a, sum) point per class, straight from Table 2.
  EXPECT_EQ(classify_cycle(0.4, 0.6), bit(DifficultTest::T1a));
  EXPECT_EQ(classify_cycle(-0.6, -0.4),
            bit(DifficultTest::T1b) | 0u); // A<-0.5, A+B>=-0.5
  EXPECT_EQ(classify_cycle(0.3, -0.1), bit(DifficultTest::T2a));
  EXPECT_EQ(classify_cycle(-0.7, 0.6),
            bit(DifficultTest::T1b) | bit(DifficultTest::T2b));
  EXPECT_EQ(classify_cycle(-0.3, 0.1), bit(DifficultTest::T5a));
  EXPECT_EQ(classify_cycle(0.7, -0.6),
            bit(DifficultTest::T5b) | bit(DifficultTest::T6b));
  EXPECT_EQ(classify_cycle(-0.2, -0.6), bit(DifficultTest::T6a));
  EXPECT_EQ(classify_cycle(0.6, 0.4), bit(DifficultTest::T6b));
}

TEST(Classify, QuietCyclesAssertNothing) {
  EXPECT_EQ(classify_cycle(0.1, 0.12), 0u);
  EXPECT_EQ(classify_cycle(-0.1, -0.12), 0u);
  EXPECT_EQ(classify_cycle(0.6, 0.62), 0u); // A>=.5 but sum >= .5
}

TEST(Classify, NamesAndOverflowFlags) {
  EXPECT_STREQ(difficult_test_name(DifficultTest::T1a), "T1a");
  EXPECT_STREQ(difficult_test_name(DifficultTest::T6b), "T6b");
  EXPECT_TRUE(is_overflow_test(DifficultTest::T2b));
  EXPECT_TRUE(is_overflow_test(DifficultTest::T5b));
  EXPECT_FALSE(is_overflow_test(DifficultTest::T1a));
  EXPECT_FALSE(is_overflow_test(DifficultTest::T6a));
}

TEST(Zones, WidthTracksSecondaryMagnitude) {
  // Figure 1: zone width is proportional to the secondary input's
  // magnitude (variance).
  const auto narrow = primary_input_zones(0.01);
  const auto wide = primary_input_zones(0.2);
  ASSERT_EQ(narrow.size(), wide.size());
  for (std::size_t i = 0; i < narrow.size(); ++i) {
    EXPECT_NEAR(narrow[i].hi - narrow[i].lo, 0.01, 1e-12);
    EXPECT_NEAR(wide[i].hi - wide[i].lo, 0.2, 1e-12);
  }
  EXPECT_THROW(primary_input_zones(0.7), precondition_error);
}

TEST(Zones, T1ZoneHugsHalfScale) {
  // Tests T1/T6 "can only be activated by signals near amplitude 0.5".
  const auto zones = primary_input_zones(0.05);
  bool found = false;
  for (const auto& z : zones)
    if (z.test == DifficultTest::T1a) {
      EXPECT_NEAR(z.hi, 0.5, 1e-12);
      EXPECT_NEAR(z.lo, 0.45, 1e-12);
      found = true;
    }
  EXPECT_TRUE(found);
}

TEST(Monitor, CountsControlledAdder) {
  // A hand-built adder fed with chosen values must count exactly the
  // classes we drive.
  rtl::FirBuilderOptions opt;
  auto d = rtl::build_fir({0.5, 0.25}, opt, "tiny");
  ASSERT_EQ(d.structural_adders.size(), 1u);
  // Drive an impulse-ish stimulus; just verify the plumbing: counts sum
  // over cycles, primary/secondary identified.
  tpg::WhiteUniformSource src(12, 3);
  const auto stim = src.generate_raw(512);
  const auto counts =
      monitor_test_zones(d, stim, {d.structural_adders[0]});
  ASSERT_EQ(counts.size(), 1u);
  EXPECT_EQ(counts[0].cycles, 512u);
  EXPECT_NE(counts[0].primary, counts[0].secondary);
  std::uint64_t total = 0;
  for (const auto c : counts[0].counts) total += c;
  EXPECT_GT(total, 0u);
}

TEST(Monitor, RejectsNonAdder) {
  auto d = rtl::build_fir({0.5}, {}, "t");
  tpg::WhiteUniformSource src(12, 3);
  const auto stim = src.generate_raw(16);
  EXPECT_THROW(monitor_test_zones(d, stim, {d.input}), precondition_error);
}

TEST(Monitor, Figure3Story_T1MissedByLfsr1AssertedByLfsrM) {
  // The paper's central example: at tap 20 of the lowpass filter the
  // attenuated LFSR-1 signal cannot assert T1, while a maximum-variance
  // sequence can.
  const auto d = designs::make_design("LP");
  // Tap 20's structural accumulator.
  const auto adder = d.tap_accumulators[20];
  ASSERT_EQ(d.graph.node(adder).kind == rtl::OpKind::Add ||
                d.graph.node(adder).kind == rtl::OpKind::Sub,
            true);

  auto run = [&](tpg::Generator& gen, std::size_t n) {
    const auto stim = gen.generate_raw(n);
    return monitor_test_zones(d, stim, {adder}).front();
  };

  auto lfsr1 = tpg::make_generator(tpg::GeneratorKind::Lfsr1, 12);
  const auto c1 = run(*lfsr1, 4095);
  const std::uint64_t t1_lfsr1 = c1.count(DifficultTest::T1a) +
                                 c1.count(DifficultTest::T1b);
  EXPECT_EQ(t1_lfsr1, 0u)
      << "attenuated LFSR-1 signal should never reach the T1 zones";

  auto lfsrm = tpg::make_generator(tpg::GeneratorKind::LfsrM, 12);
  const auto cm = run(*lfsrm, 4095);
  const std::uint64_t t1_lfsrm = cm.count(DifficultTest::T1a) +
                                 cm.count(DifficultTest::T1b);
  EXPECT_GT(t1_lfsrm, 0u)
      << "max-variance sequence should assert T1 at tap 20";

  // Overflow classes are unreachable under conservative scaling.
  EXPECT_EQ(cm.count(DifficultTest::T2b), 0u);
  EXPECT_EQ(cm.count(DifficultTest::T5b), 0u);
  EXPECT_GE(c1.missing_classes(), cm.missing_classes());
}

} // namespace
} // namespace fdbist::analysis
