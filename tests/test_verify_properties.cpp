// Algebraic property checkers over randomized filter cases: linearity
// within truncation slack, prefix-consistent fault verdicts, bounded
// signature aliasing on the kernel, and mixed-engine checkpoint resume
// equality.
#include <gtest/gtest.h>

#include <filesystem>

#include "common/env.hpp"
#include "verify/properties.hpp"

namespace fdbist::verify {
namespace {

class VerifyPropertyTest : public ::testing::Test {
protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("fdbist_verify_prop_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const char* name) const { return (dir_ / name).string(); }

private:
  std::filesystem::path dir_;
};

TEST(VerifyProperties, SuperpositionHoldsWithinTruncationSlack) {
  for (std::uint64_t i = 0; i < 10; ++i) {
    const std::uint64_t seed = common::test_seed(800 + i);
    const Finding f = check_superposition(random_filter_case(seed));
    EXPECT_FALSE(f.failed) << f.detail << "; " << common::seed_note(seed);
  }
}

TEST(VerifyProperties, FaultVerdictsArePrefixConsistent) {
  for (std::uint64_t i = 0; i < 5; ++i) {
    const std::uint64_t seed = common::test_seed(810 + i);
    const Finding f = check_prefix_dominance(random_filter_case(seed));
    EXPECT_FALSE(f.failed) << f.detail << "; " << common::seed_note(seed);
  }
}

TEST(VerifyProperties, NarrowMisrAliasesMoreOftenThanWideOne) {
  // Sanity of the measurement itself: a 2-bit signature on the same
  // cases cannot beat the generous bound computed for its width *and*
  // should alias at least occasionally across a batch of cases — if it
  // never does, the empirical machinery is likely vacuous.
  std::size_t narrow_failures = 0;
  for (std::uint64_t i = 0; i < 6; ++i) {
    const std::uint64_t seed = common::test_seed(830 + i);
    if (check_signature_compaction(random_filter_case(seed), 2).failed)
      ++narrow_failures;
  }
  // Expected aliasing at width 2 is 25% per detected fault; with ~40
  // faults per case the 2 + 64*expected allowance never fires.
  EXPECT_EQ(narrow_failures, 0u);
}

TEST_F(VerifyPropertyTest, MixedEngineResumeIsBitIdentical) {
  for (std::uint64_t i = 0; i < 3; ++i) {
    const std::uint64_t seed = common::test_seed(840 + i);
    const Finding f = check_mixed_engine_resume(
        random_filter_case(seed), path("resume.ckpt"));
    EXPECT_FALSE(f.failed) << f.detail << "; " << common::seed_note(seed);
    std::filesystem::remove(path("resume.ckpt"));
  }
}

TEST(VerifyProperties, SignatureCompactionHoldsForEveryFamily) {
  // In-kernel difference-MISR verdicts vs word-compare ground truth,
  // pinned per family so a regression in the relaxed IIR oracle or the
  // decimator lane packing cannot hide behind the family rotation.
  for (std::int32_t family = 0; family <= 2; ++family) {
    for (std::uint64_t i = 0; i < 3; ++i) {
      const std::uint64_t seed = common::test_seed(860 + 10 * family + i);
      const Finding f =
          check_signature_compaction(random_filter_case(seed, family));
      EXPECT_FALSE(f.failed) << "family " << family << ": " << f.detail
                             << "; " << common::seed_note(seed);
    }
  }
}

TEST(VerifyProperties, FilterOracleHoldsForEveryFamily) {
  // The whole oracle matrix, pinned per family so a decimator-only or
  // IIR-only regression cannot hide behind the rotation. Its sliced
  // campaign row runs every slice off the campaign's one artifact and
  // asserts that the campaign prepared once.
  for (std::int32_t family = 0; family <= 2; ++family) {
    for (std::uint64_t i = 0; i < 3; ++i) {
      const std::uint64_t seed = common::test_seed(910 + 10 * family + i);
      const Finding f = check_filter_case(random_filter_case(seed, family));
      EXPECT_FALSE(f.failed) << "family " << family << ": " << f.detail
                             << "; " << common::seed_note(seed);
    }
  }
}

TEST(VerifyProperties, RelaxedSuperpositionIsGreenAcrossFamilies) {
  // The acceptance bar for the non-FIR families: the per-family relaxed
  // superposition oracle (truncation slack + impulse-tail budget, and
  // lanewise combination for decimators) must be green over a large
  // seeded batch with zero false discrepancies.
  constexpr std::uint64_t kCasesPerFamily = 1000;
  for (std::int32_t family = 1; family <= 2; ++family) {
    std::size_t failures = 0;
    std::uint64_t first_bad = 0;
    for (std::uint64_t i = 0; i < kCasesPerFamily; ++i) {
      const std::uint64_t seed = common::test_seed(900'000 +
                                                   100'000 * family + i);
      if (check_superposition(random_filter_case(seed, family)).failed) {
        if (failures == 0) first_bad = seed;
        ++failures;
      }
    }
    EXPECT_EQ(failures, 0u) << "family " << family << ": first failure at "
                            << common::seed_note(first_bad);
  }
}

TEST(VerifyProperties, MutatedKernelTripsTheFilterOracle) {
  // End-to-end red path: a kernel mutation inside the Compiled engine's
  // netlist must surface as an engine diff (or as an escaped-mutation
  // finding), never as silent agreement.
  const std::uint64_t seed = common::test_seed(850);
  FilterCase c = random_filter_case(seed);
  c.mutate = 0;
  const Finding f = check_filter_case(c);
  EXPECT_TRUE(f.failed) << common::seed_note(seed);
}

} // namespace
} // namespace fdbist::verify
