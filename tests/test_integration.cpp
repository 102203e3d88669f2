// Cross-module integration tests: the full reference designs exercised
// end-to-end, checking the paper's qualitative claims at reduced vector
// budgets (the full-budget numbers live in the bench harnesses).
#include <cmath>
#include <gtest/gtest.h>

#include "analysis/variance.hpp"
#include "bist/kit.hpp"
#include "designs/registry.hpp"
#include "dsp/fir_design.hpp"
#include "dsp/stats.hpp"
#include "fault/simulator.hpp"
#include "gate/lower.hpp"
#include "gate/sim.hpp"
#include "rtl/sim.hpp"
#include "tpg/generators.hpp"

namespace fdbist {
namespace {

const rtl::FilterDesign& lp() {
  static const auto d = designs::make_design("LP");
  return d;
}

/// The paper's three Table 1 designs, in table order.
std::vector<rtl::FilterDesign> table1_designs() {
  std::vector<rtl::FilterDesign> out;
  for (const char* name : {"LP", "BP", "HP"})
    out.push_back(designs::make_design(name));
  return out;
}

TEST(ReferenceDesigns, Table1ScaleMatches) {
  // Paper Table 1: ~60 registers, 148-184 adders, 12/14-15/16-bit widths.
  for (const auto& d : table1_designs()) {
    const auto s = d.stats();
    EXPECT_GE(s.adders, 140u) << d.name;
    EXPECT_LE(s.adders, 200u) << d.name;
    EXPECT_GE(s.registers, 57u) << d.name;
    EXPECT_LE(s.registers, 62u) << d.name;
    EXPECT_EQ(s.width_in, 12) << d.name;
    EXPECT_GE(s.width_coef, 14) << d.name;
    EXPECT_LE(s.width_coef, 15) << d.name;
    EXPECT_EQ(s.width_out, 16) << d.name;
  }
}

TEST(ReferenceDesigns, ComplexitySpreadWithinPaperWindow) {
  // "the number of adders in the most complex design is within 14% of
  // ... the simplest" — ours spread slightly wider; assert within 30%.
  const auto all = table1_designs();
  std::size_t mn = SIZE_MAX;
  std::size_t mx = 0;
  for (const auto& d : all) {
    mn = std::min(mn, d.stats().adders);
    mx = std::max(mx, d.stats().adders);
  }
  EXPECT_LE(double(mx - mn) / double(mx), 0.30);
}

TEST(ReferenceDesigns, FaultUniverseScale) {
  // Paper Table 1 lists 50-57k adder faults. Our lowering folds the
  // redundant sign-extension/constant cells away (the paper's
  // "redundant operator elimination" step) and shares duplicated CSD
  // logic, so the collapsed universe lands near half that — same order
  // of magnitude, with no structurally undetectable sites.
  for (const auto& d : table1_designs()) {
    const auto low = gate::lower(d.graph);
    const auto faults = fault::enumerate_adder_faults(low);
    EXPECT_GT(faults.size(), 15000u) << d.name;
    EXPECT_LT(faults.size(), 70000u) << d.name;
  }
}

TEST(GateVsRtl, LowpassExactMatchUnderThreeGenerators) {
  const auto& d = lp();
  const auto low = gate::lower(d.graph);
  for (const auto kind : {tpg::GeneratorKind::Lfsr1,
                          tpg::GeneratorKind::LfsrM, tpg::GeneratorKind::Ramp}) {
    auto gen = tpg::make_generator(kind, 12);
    const auto stim = gen->generate_raw(400);
    rtl::Simulator rs(d.graph);
    gate::WordSim ws(low.netlist);
    for (const auto x : stim) {
      rs.step(x);
      ws.step_broadcast(x);
      ASSERT_EQ(ws.lane_value(low.netlist.outputs()[0], 0), rs.raw(d.output))
          << tpg::kind_name(kind);
    }
  }
}

TEST(Paper, Figure6And7TapAttenuation) {
  // LFSR-1 at tap 20: sigma ~0.036 in the paper; decorrelator lifts it
  // ~3.4x. Check the ratio and the order of magnitude.
  const auto& d = lp();
  auto sigma_under = [&](tpg::GeneratorKind k) {
    auto gen = tpg::make_generator(k, 12);
    const auto stim = gen->generate_raw(4095);
    rtl::Simulator sim(d.graph);
    return dsp::std_dev(sim.run_probe(stim, d.tap_accumulators[20]));
  };
  const double s1 = sigma_under(tpg::GeneratorKind::Lfsr1);
  const double sd = sigma_under(tpg::GeneratorKind::LfsrD);
  EXPECT_GT(s1, 0.01);
  EXPECT_LT(s1, 0.08); // paper: 0.036
  EXPECT_GT(sd / s1, 2.0); // paper: 3.4x
  EXPECT_LT(sd / s1, 6.0);
}

TEST(Paper, Section5NinetyNinePercentIsNotEnough) {
  // The LFSR-1 reaches high coverage on the lowpass yet misses faults
  // that LFSR-D detects — the paper's central warning. Reduced budget
  // (1k vectors) keeps this test quick.
  const auto& d = lp();
  bist::BistKit kit(d);
  auto g1 = tpg::make_generator(tpg::GeneratorKind::Lfsr1, 12);
  auto gd = tpg::make_generator(tpg::GeneratorKind::LfsrD, 12);
  const auto r1 = kit.evaluate(*g1, 1024);
  const auto rd = kit.evaluate(*gd, 1024);
  EXPECT_GT(r1.coverage(), 0.97); // high coverage...
  EXPECT_GT(r1.missed(), rd.missed()); // ...but clearly worse than LFSR-D
}

TEST(Paper, MissedFaultsAreUpperBitFaults) {
  // The faults the LFSR-1 misses should cluster near adder MSBs.
  const auto& d = lp();
  bist::BistKit kit(d);
  auto g1 = tpg::make_generator(tpg::GeneratorKind::Lfsr1, 12);
  const auto r = kit.evaluate(*g1, 1024);
  const auto missed = kit.undetected_faults(r.fault_result);
  ASSERT_FALSE(missed.empty());
  double avg_depth = 0.0;
  for (const auto& f : missed)
    avg_depth += fault::bits_below_msb(f, kit.lowered().netlist, d.graph);
  avg_depth /= double(missed.size());
  EXPECT_LT(avg_depth, 5.0); // concentrated in the top few bits
}

TEST(Paper, Section9MixedModeBeatsSingleModes) {
  // LFSR-1/LFSR-M switched scheme vs each single mode at equal total
  // budget (reduced: 1k + 1k).
  const auto& d = lp();
  bist::BistKit kit(d);
  tpg::SwitchedLfsr mixed(12, 1024, 1);
  tpg::Lfsr1 pure1(12, 1);
  tpg::MaxVarianceLfsr purem(12, 1);
  const auto rm = kit.evaluate(mixed, 2048);
  const auto r1 = kit.evaluate(pure1, 2048);
  const auto rv = kit.evaluate(purem, 2048);
  EXPECT_LT(rm.missed(), r1.missed());
  EXPECT_LT(rm.missed(), rv.missed());
}

TEST(Paper, VariancePredictionFlagsTheActualMisses) {
  // Adders flagged by the Eqn-1 LFSR-1 analysis should own a large share
  // of the actually missed faults.
  const auto& d = lp();
  const auto pred = analysis::predict_sigma_lfsr1(d, 12);
  const auto flagged =
      analysis::find_attenuation_problems(d, pred, 0.125);
  std::set<rtl::NodeId> flagged_nodes;
  for (const auto& p : flagged) flagged_nodes.insert(p.node);
  ASSERT_FALSE(flagged_nodes.empty());

  bist::BistKit kit(d);
  auto in_flagged_misses = [&](tpg::GeneratorKind k) {
    auto gen = tpg::make_generator(k, 12);
    const auto r = kit.evaluate(*gen, 1024);
    std::size_t n = 0;
    for (const auto& f : kit.undetected_faults(r.fault_result))
      if (flagged_nodes.count(kit.lowered().netlist.origin(f.gate).node))
        ++n;
    return n;
  };
  // The attenuation-specific misses live in the flagged adders: the
  // LFSR-1 must miss clearly more faults there than the decorrelated
  // generator, whose spectrum does not starve them.
  const std::size_t m1 = in_flagged_misses(tpg::GeneratorKind::Lfsr1);
  const std::size_t md = in_flagged_misses(tpg::GeneratorKind::LfsrD);
  EXPECT_GT(m1, md + md / 2);
}

TEST(ReferenceDesigns, FrequencyResponsesAreTheirTypes) {
  // The ideal responses the designs were quantized from.
  auto mag_of = [](const char* name) {
    std::vector<double> h;
    for (const auto& c : designs::make_design(name).coefs)
      h.push_back(c.target);
    return [h](double freq) { return std::abs(dsp::freq_response(h, freq)); };
  };
  // Lowpass: passes DC, blocks 0.25.
  const auto lp_mag = mag_of("LP");
  EXPECT_GT(lp_mag(0.01), 10.0 * lp_mag(0.25));
  // Bandpass: passes 0.25, blocks DC and 0.45.
  const auto bp_mag = mag_of("BP");
  EXPECT_GT(bp_mag(0.25), 10.0 * bp_mag(0.02));
  EXPECT_GT(bp_mag(0.25), 10.0 * bp_mag(0.46));
  // Highpass: passes 0.48, blocks DC.
  const auto hp_mag = mag_of("HP");
  EXPECT_GT(hp_mag(0.48), 10.0 * hp_mag(0.05));
}

TEST(ReferenceDesigns, DeterministicConstruction) {
  const auto a = designs::make_design("BP");
  const auto b = designs::make_design("BP");
  EXPECT_EQ(a.graph.size(), b.graph.size());
  EXPECT_EQ(a.stats().adders, b.stats().adders);
  for (std::size_t i = 0; i < a.coefs.size(); ++i)
    EXPECT_EQ(a.coefs[i].raw, b.coefs[i].raw);
}

} // namespace
} // namespace fdbist
