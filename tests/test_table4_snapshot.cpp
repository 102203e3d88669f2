// Golden snapshot of the Table 4 experiment: missed-fault counts for
// each generator kind on each reference filter, after 256 vectors (a
// reduced configuration) and after the paper's 4096 (the EXPERIMENTS.md
// Table 4 numbers, which table4_missed_faults reproduces); and of
// Table 6, the mixed scheme against each single mode at 8192 vectors
// (table6_mixed_scheme).
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
#include "tpg/lfsr.hpp"

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

TEST(Table6Snapshot, MixedSchemeAtPaperBudget) {
  // Table 6 / Figure 13 at the paper's 8k budget: 4k LFSR-1 vectors then
  // 4k maximum-variance ones, against each single mode over the same
  // 8192 vectors. Exact misses (table6_mixed_scheme, EXPERIMENTS.md)
  // plus the paper's shape claim: the mixed scheme beats every single
  // mode.
  constexpr std::size_t kTotal = 8192;
  struct Row {
    designs::ReferenceFilter filter;
    const char* name;
    std::array<std::size_t, 4> missed; // mixed, LFSR-1, LFSR-D, LFSR-M
  };
  constexpr std::array kRows = {
      Row{designs::ReferenceFilter::Lowpass, "LP", {125, 233, 159, 2810}},
      Row{designs::ReferenceFilter::Highpass, "HP", {113, 150, 156, 3093}},
  };
  for (const Row& row : kRows) {
    const auto d = designs::make_reference(row.filter);
    bist::BistKit kit(d);
    tpg::SwitchedLfsr mixed(12, kTotal / 2, 1);
    tpg::Lfsr1 lfsr1(12, 1);
    tpg::DecorrelatedLfsr lfsrd(12, 1);
    tpg::MaxVarianceLfsr lfsrm(12, 1);
    const std::array<tpg::Generator*, 4> gens = {&mixed, &lfsr1, &lfsrd,
                                                 &lfsrm};
    std::array<std::size_t, 4> missed{};
    for (std::size_t k = 0; k < gens.size(); ++k) {
      missed[k] = kit.evaluate(*gens[k], kTotal).missed();
      EXPECT_EQ(missed[k], row.missed[k]) << row.name << " / "
                                          << gens[k]->name();
    }
    for (std::size_t k = 1; k < gens.size(); ++k)
      EXPECT_LT(missed[0], missed[k])
          << row.name << ": mixed vs " << gens[k]->name();
  }
}

} // namespace
} // namespace fdbist
