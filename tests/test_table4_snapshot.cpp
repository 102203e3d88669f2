// Golden snapshot of the Table 4 experiment: missed-fault counts for
// each generator kind on each reference filter, after 256 vectors (a
// reduced configuration) and after the paper's 4096 (the EXPERIMENTS.md
// Table 4 numbers, which table4_missed_faults reproduces).
//
// The fault engine is fully deterministic, so these counts are exact
// integers, not tolerances. A diff here means detection behaviour
// changed — a lowering change, a fault-universe change, a generator
// change, or a kernel bug — and must be investigated, not re-baked
// blindly. To re-bake after an *intended* change, run this binary and
// copy the table it prints on failure.
#include <array>
#include <cstdio>
#include <gtest/gtest.h>

#include "bist/kit.hpp"
#include "designs/reference.hpp"
#include "tpg/generators.hpp"

namespace fdbist {
namespace {

constexpr std::size_t kVectors = 256;

constexpr std::array kKinds = {
    tpg::GeneratorKind::Lfsr1, tpg::GeneratorKind::LfsrD,
    tpg::GeneratorKind::LfsrM, tpg::GeneratorKind::Ramp};

struct Golden {
  designs::ReferenceFilter filter;
  const char* name;
  std::array<std::size_t, 4> missed; // Lfsr1, LfsrD, LfsrM, Ramp
};

constexpr std::size_t kFilters = 3;
using GoldenTable = std::array<Golden, kFilters>;

// Baked from a green run at 256 vectors (reduced Table 4 config).
constexpr GoldenTable kGolden = {
    Golden{designs::ReferenceFilter::Lowpass, "LP", {371, 295, 2901, 6040}},
    Golden{designs::ReferenceFilter::Bandpass, "BP", {294, 278, 2651, 4993}},
    Golden{designs::ReferenceFilter::Highpass, "HP", {310, 308, 3166, 5465}},
};

// The paper's budget: EXPERIMENTS.md Table 4.
constexpr GoldenTable kGolden4096 = {
    Golden{designs::ReferenceFilter::Lowpass, "LP", {233, 165, 2811, 199}},
    Golden{designs::ReferenceFilter::Bandpass, "BP", {143, 141, 2582, 464}},
    Golden{designs::ReferenceFilter::Highpass, "HP", {150, 163, 3093, 444}},
};

void expect_missed_counts(const GoldenTable& golden, std::size_t vectors) {
  bool any_diff = false;
  std::array<std::array<std::size_t, 4>, kFilters> measured{};
  for (std::size_t di = 0; di < kFilters; ++di) {
    const auto d = designs::make_reference(golden[di].filter);
    bist::BistKit kit(d);
    for (std::size_t gi = 0; gi < kKinds.size(); ++gi) {
      auto gen = tpg::make_generator(kKinds[gi], 12);
      const auto report = kit.evaluate(*gen, vectors);
      measured[di][gi] = report.missed();
      EXPECT_EQ(report.missed(), golden[di].missed[gi])
          << golden[di].name << " / " << gen->name() << " @ " << vectors;
      any_diff |= report.missed() != golden[di].missed[gi];
    }
  }
  if (any_diff) {
    std::printf("re-bake table at %zu vectors (only after confirming the "
                "change is intended):\n",
                vectors);
    for (std::size_t di = 0; di < kFilters; ++di)
      std::printf("  %s: {%zu, %zu, %zu, %zu}\n", golden[di].name,
                  measured[di][0], measured[di][1], measured[di][2],
                  measured[di][3]);
  }
}

TEST(Table4Snapshot, MissedFaultCountsMatchGolden) {
  expect_missed_counts(kGolden, kVectors);
}

TEST(Table4Snapshot, MissedFaultCountsMatchGoldenAtPaperBudget) {
  expect_missed_counts(kGolden4096, 4096);
}

TEST(Table4Snapshot, SnapshotPreservesPaperOrderingOnLowpass) {
  // Shape check that survives re-bakes: on LP the decimation LFSR beats
  // the plain LFSR-1, and LFSR-M is the worst mode — the paper's
  // headline ordering (Table 4, row LP).
  const auto d = designs::make_reference(designs::ReferenceFilter::Lowpass);
  bist::BistKit kit(d);
  std::array<std::size_t, 4> missed{};
  for (std::size_t gi = 0; gi < kKinds.size(); ++gi) {
    auto gen = tpg::make_generator(kKinds[gi], 12);
    missed[gi] = kit.evaluate(*gen, kVectors).missed();
  }
  EXPECT_LE(missed[1], missed[0]); // LFSR-D <= LFSR-1
  EXPECT_GT(missed[2], missed[1]); // LFSR-M worst vs LFSR-D
}

} // namespace
} // namespace fdbist
