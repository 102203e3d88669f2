#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "bist/kit.hpp"
#include "bist/misr.hpp"
#include "designs/registry.hpp"
#include "tpg/generators.hpp"

namespace fdbist::bist {
namespace {

TEST(Misr, DeterministicSignature) {
  Misr a(16);
  Misr b(16);
  const std::vector<std::int64_t> words{1, -2, 300, 4000, -5000};
  a.absorb_all(words);
  b.absorb_all(words);
  EXPECT_EQ(a.signature(), b.signature());
}

TEST(Misr, DifferentTraceDifferentSignature) {
  Misr a(24);
  Misr b(24);
  std::vector<std::int64_t> w1(100, 0);
  std::vector<std::int64_t> w2(100, 0);
  w2[57] = 4; // single-bit, single-cycle difference
  a.absorb_all(w1);
  b.absorb_all(w2);
  EXPECT_NE(a.signature(), b.signature());
}

TEST(Misr, OrderSensitive) {
  Misr a(16);
  Misr b(16);
  a.absorb(1);
  a.absorb(2);
  b.absorb(2);
  b.absorb(1);
  EXPECT_NE(a.signature(), b.signature());
}

TEST(Misr, ResetRestoresSeed) {
  Misr m(16, 0x1234);
  EXPECT_EQ(m.signature(), 0x1234u);
  m.absorb(99);
  EXPECT_NE(m.signature(), 0x1234u);
  m.reset();
  EXPECT_EQ(m.signature(), 0x1234u);
}

TEST(Misr, WidthValidation) {
  EXPECT_THROW(Misr(1), precondition_error);
  EXPECT_THROW(Misr(40), precondition_error);
  EXPECT_NO_THROW(Misr(24));
}

// Small design shared by kit tests: fast to lower and simulate.
const rtl::FilterDesign& small_design() {
  static const rtl::FilterDesign d = rtl::build_fir(
      {0.22, -0.31, 0.085, -0.05, 0.19, 0.075}, {}, "small");
  return d;
}

TEST(Kit, ConstructsAndExposesUniverse) {
  BistKit kit(small_design());
  EXPECT_GT(kit.faults().size(), 100u);
  EXPECT_EQ(&kit.design(), &small_design());
  EXPECT_GT(kit.lowered().netlist.logic_gate_count(), 0u);
}

TEST(Kit, MisrMustCoverOutput) {
  EXPECT_THROW(BistKit(small_design(), 8), precondition_error);
}

TEST(Kit, RejectsMisrWiderThan31Bits) {
  // Refused at construction, naming the MISR width — not after a whole
  // fault simulation, by the LFSR degree check inside the golden
  // signature.
  const auto lp = designs::make_design("LP");
  try {
    BistKit kit(lp, 32);
    FAIL() << "a 32-bit MISR was accepted";
  } catch (const precondition_error& e) {
    EXPECT_NE(std::string(e.what()).find("MISR width 32"), std::string::npos)
        << e.what();
  }
}

TEST(Kit, GoldenResponseMatchesAcrossCalls) {
  BistKit kit(small_design());
  auto gen = tpg::make_generator(tpg::GeneratorKind::LfsrD, 12);
  const auto stim = gen->generate_raw(200);
  const auto r1 = kit.golden_response(stim);
  const auto r2 = kit.golden_response(stim);
  EXPECT_EQ(r1, r2);
  EXPECT_EQ(r1.size(), stim.size());
  EXPECT_EQ(kit.golden_signature(stim), kit.golden_signature(stim));
}

TEST(Kit, EvaluateReportsConsistentCounts) {
  BistKit kit(small_design());
  auto gen = tpg::make_generator(tpg::GeneratorKind::LfsrD, 12);
  const auto report = kit.evaluate(*gen, 512);
  EXPECT_EQ(report.vectors, 512u);
  EXPECT_EQ(report.total_faults, kit.faults().size());
  EXPECT_EQ(report.detected + report.missed(), report.total_faults);
  EXPECT_GT(report.coverage(), 0.9);
  const auto undetected = kit.undetected_faults(report.fault_result);
  EXPECT_EQ(undetected.size(), report.missed());
}

TEST(Kit, EvaluateResetsGenerator) {
  BistKit kit(small_design());
  auto gen = tpg::make_generator(tpg::GeneratorKind::LfsrD, 12);
  gen->generate_raw(17); // disturb the state
  const auto r1 = kit.evaluate(*gen, 256);
  const auto r2 = kit.evaluate(*gen, 256);
  EXPECT_EQ(r1.detected, r2.detected);
  EXPECT_EQ(r1.golden_signature, r2.golden_signature);
}

TEST(Kit, SignatureDetectsDetectedFault) {
  // Any fault the fault simulator detects must also flip the MISR
  // signature (no aliasing for this stimulus) — spot-check several.
  BistKit kit(small_design());
  auto gen = tpg::make_generator(tpg::GeneratorKind::LfsrD, 12);
  const auto stim = gen->generate_raw(512);
  const auto res = fault::simulate_faults(kit.lowered().netlist, stim,
                                          kit.faults());
  int checked = 0;
  for (std::size_t i = 0; i < kit.faults().size() && checked < 10; i += 37) {
    if (res.detect_cycle[i] < 0) continue;
    EXPECT_TRUE(kit.signature_detects(kit.faults()[i], stim))
        << "fault " << i << " aliased in the MISR";
    ++checked;
  }
  EXPECT_GE(checked, 5);
}

TEST(Kit, SignatureUnchangedForUndetectedFault) {
  BistKit kit(small_design());
  auto gen = tpg::make_generator(tpg::GeneratorKind::LfsrD, 12);
  const auto stim = gen->generate_raw(128);
  const auto res =
      fault::simulate_faults(kit.lowered().netlist, stim, kit.faults());
  for (std::size_t i = 0; i < kit.faults().size(); ++i) {
    if (res.detect_cycle[i] >= 0) continue;
    EXPECT_FALSE(kit.signature_detects(kit.faults()[i], stim));
    break; // one is enough
  }
}

TEST(Kit, RejectsZeroVectors) {
  BistKit kit(small_design());
  auto gen = tpg::make_generator(tpg::GeneratorKind::LfsrD, 12);
  EXPECT_THROW(kit.evaluate(*gen, 0), precondition_error);
}

class KitGolden : public ::testing::TestWithParam<std::string> {
protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("fdbist_kit_golden_" + GetParam());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

// The report's golden signature must equal an independent fault-free
// sweep (golden_signature) for every Table 4 TPG, through every route
// that fills it: read from the compiled engine's good trace (evaluate,
// fresh campaign with and without a checkpoint) or recomputed when the
// run recorded none (FullSweep, a campaign resumed from a complete
// checkpoint).
TEST_P(KitGolden, ReportSignatureMatchesFaultFreeSweep) {
  constexpr std::size_t kVectors = 256;
  const auto design = designs::make_design(GetParam());
  const BistKit kit(design);
  for (const auto kind :
       {tpg::GeneratorKind::Lfsr1, tpg::GeneratorKind::LfsrD,
        tpg::GeneratorKind::LfsrM, tpg::GeneratorKind::Ramp}) {
    const std::string cell = GetParam() + "/" + tpg::kind_name(kind);
    auto gen = tpg::make_generator(kind, design.stats().width_in);
    const auto stim = gen->generate_raw(kVectors); // evaluate resets
    const std::uint32_t want = kit.golden_signature(stim);
    auto check = [&](const BistReport& r, bool from_trace,
                     const char* route) {
      EXPECT_EQ(r.golden_signature, want) << cell << " " << route;
      EXPECT_EQ(r.fault_result.good_outputs.empty(), !from_trace)
          << cell << " " << route;
      // The public helper fdbist_cli's campaign calls.
      EXPECT_EQ(kit.golden_signature(stim, r.fault_result), want)
          << cell << " " << route;
    };

    fault::FaultSimOptions opt;
    check(kit.evaluate(*gen, kVectors, opt), true, "evaluate Auto");
    opt.engine = fault::FaultSimEngine::FullSweep;
    check(kit.evaluate(*gen, kVectors, opt), false, "evaluate FullSweep");

    // One simulate_faults call: the campaign's result carries that
    // call's words.
    fault::CampaignOptions copt;
    copt.family = static_cast<std::uint32_t>(design.family);
    copt.checkpoint_path = (dir_ / "campaign.ckpt").string();
    std::filesystem::remove(copt.checkpoint_path);
    auto fresh = kit.evaluate_campaign(*gen, kVectors, copt);
    ASSERT_TRUE(fresh) << cell << ": " << fresh.error().to_string();
    check(*fresh, true, "campaign fresh");
    copt.resume = true;
    auto resumed = kit.evaluate_campaign(*gen, kVectors, copt);
    ASSERT_TRUE(resumed) << cell << ": " << resumed.error().to_string();
    check(*resumed, false, "campaign resumed from a complete checkpoint");

    copt.resume = false;
    copt.checkpoint_path.clear();
    auto unsaved = kit.evaluate_campaign(*gen, kVectors, copt);
    ASSERT_TRUE(unsaved) << cell << ": " << unsaved.error().to_string();
    check(*unsaved, true, "campaign without a checkpoint");
  }
}

std::vector<std::string> registered_designs() {
  std::vector<std::string> names;
  for (const auto& e : designs::design_registry()) names.push_back(e.name);
  return names;
}

INSTANTIATE_TEST_SUITE_P(
    Registry, KitGolden, ::testing::ValuesIn(registered_designs()),
    [](const ::testing::TestParamInfo<std::string>& p) { return p.param; });

} // namespace
} // namespace fdbist::bist
