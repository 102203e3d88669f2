// Golden snapshot of the Table 4 experiment: missed-fault counts for
// each generator kind on each reference filter, after 256 vectors (a
// reduced configuration) and after the paper's 4096 (the EXPERIMENTS.md
// Table 4 numbers, which bench/paper_grid reproduces); and of Table 6,
// the mixed scheme against each single mode at 8192 vectors (also
// paper_grid). Figure 13's claim, the mixed scheme switching at 2048 of
// 4096 vectors on LP, is asserted as a shape.
//
// The fault engine is fully deterministic, so these counts are exact
// integers, not tolerances. At the paper's budget the measured table
// must also show EXPERIMENTS.md's shape claims, which a re-bake keeps. A diff here means detection behaviour
// changed — a lowering change, a fault-universe change, a generator
// change, or a kernel bug — and must be investigated, not re-baked
// blindly. To re-bake after an *intended* change, run this binary and
// copy the table it prints on failure.
#include <algorithm>
#include <array>
#include <cstdio>
#include <gtest/gtest.h>

#include "bist/kit.hpp"
#include "designs/registry.hpp"
#include "tpg/generators.hpp"
#include "tpg/lfsr.hpp"

namespace fdbist {
namespace {

constexpr std::size_t kVectors = 256;

constexpr std::array kKinds = {
    tpg::GeneratorKind::Lfsr1, tpg::GeneratorKind::LfsrD,
    tpg::GeneratorKind::LfsrM, tpg::GeneratorKind::Ramp};

struct Golden {
  const char* name; // registered design
  std::array<std::size_t, 4> missed; // Lfsr1, LfsrD, LfsrM, Ramp
};

constexpr std::size_t kFilters = 3;
using GoldenTable = std::array<Golden, kFilters>;

// Baked from a green run at 256 vectors (reduced Table 4 config).
constexpr GoldenTable kGolden = {
    Golden{"LP", {371, 295, 2901, 6040}},
    Golden{"BP", {294, 278, 2651, 4993}},
    Golden{"HP", {310, 308, 3166, 5465}},
};

// The paper's budget: EXPERIMENTS.md Table 4.
constexpr GoldenTable kGolden4096 = {
    Golden{"LP", {233, 165, 2811, 199}},
    Golden{"BP", {143, 141, 2582, 464}},
    Golden{"HP", {150, 163, 3093, 444}},
};

using MissedTable = std::array<std::array<std::size_t, 4>, kFilters>;

/// Measures the table, checks it against `golden` and returns it.
MissedTable expect_missed_counts(const GoldenTable& golden,
                                 std::size_t vectors) {
  bool any_diff = false;
  MissedTable measured{};
  for (std::size_t di = 0; di < kFilters; ++di) {
    const auto d = designs::make_design(golden[di].name);
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
  return measured;
}

/// EXPERIMENTS.md's Table 4 shape claims, asserted on a measured
/// LP/BP/HP table at the paper's budget rather than on the golden
/// counts, so they survive a re-bake.
void expect_table4_shape(const MissedTable& m) {
  enum { kLp, kBp, kHp };
  enum { kL1, kLd, kLm, kRamp };
  const char* names[kFilters] = {"LP", "BP", "HP"};
  auto ratio = [](std::size_t a, std::size_t b) {
    return double(a) / double(std::max<std::size_t>(b, 1));
  };
  // LP: LFSR-1 misses about 1.4x what LFSR-D misses (paper: 1.57x), the
  // headline frequency-domain incompatibility.
  EXPECT_GT(ratio(m[kLp][kL1], m[kLp][kLd]), 1.25);
  EXPECT_LT(ratio(m[kLp][kL1], m[kLp][kLd]), 1.75);
  // BP and HP: the two are close.
  for (const int di : {kBp, kHp}) {
    const auto [lo, hi] = std::minmax(m[di][kL1], m[di][kLd]);
    EXPECT_LT(ratio(hi, lo), 1.15) << names[di] << ": LFSR-1 vs LFSR-D";
  }
  // LFSR-M is the worst single mode on every design, and flat across
  // designs.
  std::size_t m_lo = m[kLp][kLm];
  std::size_t m_hi = m[kLp][kLm];
  for (std::size_t di = 0; di < kFilters; ++di) {
    for (const int gi : {kL1, kLd, kRamp})
      EXPECT_GT(m[di][kLm], m[di][std::size_t(gi)])
          << names[di] << ": LFSR-M vs generator " << gi;
    m_lo = std::min(m_lo, m[di][kLm]);
    m_hi = std::max(m_hi, m[di][kLm]);
  }
  EXPECT_LT(ratio(m_hi, m_lo), 1.3) << "LFSR-M across designs";
  // Ramp is the worst wide-band generator on BP and HP.
  for (const int di : {kBp, kHp})
    for (const int gi : {kL1, kLd})
      EXPECT_GT(m[di][kRamp], m[di][std::size_t(gi)])
          << names[di] << ": Ramp vs generator " << gi;
}

TEST(Table4Snapshot, MissedFaultCountsMatchGolden) {
  expect_missed_counts(kGolden, kVectors);
}

TEST(Table4Snapshot, MissedFaultCountsMatchGoldenAtPaperBudget) {
  expect_table4_shape(expect_missed_counts(kGolden4096, 4096));
}

TEST(Table4Snapshot, SnapshotPreservesPaperOrderingOnLowpass) {
  // Shape check that survives re-bakes: on LP the decimation LFSR beats
  // the plain LFSR-1, and LFSR-M is the worst mode — the paper's
  // headline ordering (Table 4, row LP).
  const auto d = designs::make_design("LP");
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
  // Table 6 at the paper's 8k budget: 4k LFSR-1 vectors then 4k
  // maximum-variance ones, against each single mode over the same 8192
  // vectors. Exact misses (paper_grid, EXPERIMENTS.md) plus the paper's
  // shape claim: the mixed scheme beats every single mode.
  constexpr std::size_t kTotal = 8192;
  struct Row {
    const char* name; // registered design
    std::array<std::size_t, 4> missed; // mixed, LFSR-1, LFSR-D, LFSR-M
  };
  constexpr std::array kRows = {
      Row{"LP", {125, 233, 159, 2810}},
      Row{"HP", {113, 150, 156, 3093}},
  };
  for (const Row& row : kRows) {
    const auto d = designs::make_design(row.name);
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

TEST(Figure13Snapshot, MixedSchemeTracksLfsr1UntilTheSwitchThenBeatsBoth) {
  // Figure 13: on LP at 4096 vectors, the mixed scheme runs LFSR-1 until
  // vector 2048, then maximum-variance mode. SwitchedLfsr returns its
  // inner Lfsr1's words until the switch, so every fault either run
  // detects before vector 2048 has the same detect cycle in both; after
  // it, the max-variance phase must leave fewer misses than either
  // single mode does over the whole 4096 vectors.
  constexpr std::size_t kTotal = 4096;
  constexpr std::int32_t kSwitch = 2048;
  const auto d = designs::make_design("LP");
  bist::BistKit kit(d);
  tpg::SwitchedLfsr mixed(12, kSwitch, 1);
  tpg::Lfsr1 lfsr1(12, 1);
  tpg::MaxVarianceLfsr lfsrm(12, 1);
  const auto rx = kit.evaluate(mixed, kTotal);
  const auto r1 = kit.evaluate(lfsr1, kTotal);
  const auto rm = kit.evaluate(lfsrm, kTotal);

  const auto& cx = rx.fault_result.detect_cycle;
  const auto& c1 = r1.fault_result.detect_cycle;
  ASSERT_EQ(cx.size(), c1.size());
  std::size_t early = 0;
  for (std::size_t i = 0; i < cx.size(); ++i) {
    const bool before_switch = (cx[i] >= 0 && cx[i] < kSwitch) ||
                               (c1[i] >= 0 && c1[i] < kSwitch);
    if (!before_switch) continue;
    ++early;
    EXPECT_EQ(cx[i], c1[i]) << "fault " << i;
  }
  EXPECT_GT(early, 0u);
  EXPECT_LT(rx.missed(), r1.missed()) << "mixed vs LFSR-1";
  EXPECT_LT(rx.missed(), rm.missed()) << "mixed vs LFSR-M";
}

} // namespace
} // namespace fdbist
