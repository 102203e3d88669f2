#include <gtest/gtest.h>

#include <algorithm>

#include "bist/compactors.hpp"
#include "bist/diagnosis.hpp"
#include "bist/misr.hpp"
#include "fault/simulator.hpp"
#include "gate/sim.hpp"
#include "rtl/fir_builder.hpp"
#include "tpg/generators.hpp"

namespace fdbist::bist {
namespace {

TEST(OnesCount, CountsSetBits) {
  OnesCountCompactor c(8);
  c.absorb(0b1011);
  c.absorb(0b1);
  EXPECT_EQ(c.signature(), 4u);
  c.reset();
  EXPECT_EQ(c.signature(), 0u);
}

TEST(OnesCount, MasksToWordWidth) {
  OnesCountCompactor c(4);
  c.absorb(0xF07); // only the low nibble counts
  EXPECT_EQ(c.signature(), 3u);
}

TEST(OnesCount, AliasesOnBalancedBitFlips) {
  // The classic ones-count weakness: a 0->1 plus a 1->0 flip cancels.
  OnesCountCompactor a(8);
  OnesCountCompactor b(8);
  a.absorb(0b0011);
  b.absorb(0b0101); // same popcount
  EXPECT_EQ(a.signature(), b.signature());
}

TEST(TransitionCount, CountsPerBitTransitions) {
  TransitionCountCompactor c(4);
  c.absorb(0b0000);
  c.absorb(0b0011); // 2 transitions
  c.absorb(0b0010); // 1 transition
  EXPECT_EQ(c.signature(), 3u);
  c.reset();
  c.absorb(0b1111); // first word: no previous
  EXPECT_EQ(c.signature(), 0u);
}

TEST(Compactors, MisrDistinguishesOrderOnesCountDoesNot) {
  Misr misr_a(16);
  Misr misr_b(16);
  OnesCountCompactor ones_a(16);
  OnesCountCompactor ones_b(16);
  misr_a.absorb(1); misr_a.absorb(2);
  misr_b.absorb(2); misr_b.absorb(1);
  ones_a.absorb(1); ones_a.absorb(2);
  ones_b.absorb(2); ones_b.absorb(1);
  EXPECT_NE(misr_a.signature(), misr_b.signature());
  EXPECT_EQ(ones_a.signature(), ones_b.signature());
}

// -------------------------------------------------------------- dictionary

struct Fixture {
  rtl::FilterDesign d = rtl::build_fir({0.22, -0.31, 0.085}, {}, "dict");
  gate::LoweredDesign low = gate::lower(d.graph);
  std::vector<fault::Fault> faults =
      fault::enumerate_adder_faults(low);
  std::vector<std::int64_t> stim =
      tpg::WhiteUniformSource(12, 7).generate_raw(256);
};

TEST(Dictionary, GoodSignatureMatchesDirectComputation) {
  Fixture f;
  FaultDictionary dict(f.low.netlist, f.faults, f.stim);
  gate::WordSim sim(f.low.netlist);
  Misr misr(24);
  for (const auto x : f.stim) {
    sim.step_broadcast(x);
    misr.absorb(std::uint64_t(
        sim.lane_value(f.low.netlist.outputs().front(), 0)));
  }
  EXPECT_EQ(dict.good_signature(), misr.signature());
}

TEST(Dictionary, SignaturesAreRealMisrSignatures) {
  // Each dictionary signature must be bist::Misr(24) over the faulty
  // machine's sign-extended output stream. The fixture's output word is
  // 16 bits, so MISR bits 16..23 absorb the sign bit; a register that
  // left them empty would disagree on faults that flip the sign bit.
  Fixture f;
  FaultDictionary dict(f.low.netlist, f.faults, f.stim);
  const auto& out_bits = f.low.netlist.outputs().front();
  ASSERT_LT(out_bits.size(), 24u);
  const auto plain = fault::simulate_faults(f.low.netlist, f.stim, f.faults);
  std::size_t undetected = 0;
  std::size_t checked = 0;
  for (std::size_t i = 0; i < f.faults.size(); i += 5) {
    gate::WordSim sim(f.low.netlist);
    sim.add_fault(f.faults[i].gate, f.faults[i].site, f.faults[i].stuck, 2u);
    Misr misr(24);
    for (const auto x : f.stim) {
      sim.step_broadcast(x);
      misr.absorb(std::uint64_t(sim.lane_value(out_bits, 1)));
    }
    EXPECT_EQ(dict.signatures()[i], misr.signature()) << "fault " << i;
    undetected += plain.detect_cycle[i] < 0 ? 1 : 0;
    ++checked;
  }
  EXPECT_GT(undetected, 0u) << "the sample should cover undetected faults";
  EXPECT_GT(checked, undetected);
}

TEST(Dictionary, DiagnosesInjectedFaults) {
  Fixture f;
  FaultDictionary dict(f.low.netlist, f.faults, f.stim);
  // For several detected faults: the candidate set for the observed
  // signature must contain the injected fault.
  int checked = 0;
  for (std::size_t i = 0; i < f.faults.size() && checked < 12; i += 13) {
    const std::uint32_t sig = dict.signatures()[i];
    if (sig == dict.good_signature()) continue; // undetected
    const auto cands = dict.diagnose(sig);
    EXPECT_NE(std::find(cands.begin(), cands.end(), i), cands.end())
        << "fault " << i;
    ++checked;
  }
  EXPECT_GE(checked, 8);
}

TEST(Dictionary, UndetectedFaultsMapToGoodSignature) {
  Fixture f;
  // A short stimulus leaves some faults undetected.
  const std::vector<std::int64_t> tiny(f.stim.begin(), f.stim.begin() + 8);
  FaultDictionary dict(f.low.netlist, f.faults, tiny);
  const auto res =
      fault::simulate_faults(f.low.netlist, tiny, f.faults);
  std::size_t undetected = res.total_faults - res.detected;
  // Every undetected fault is signature-indistinct from good (aliased
  // detected ones may add to the count).
  EXPECT_GE(dict.indistinct_from_good(), undetected);
}

TEST(Dictionary, AmbiguityIsModest) {
  Fixture f;
  FaultDictionary dict(f.low.netlist, f.faults, f.stim);
  // Equivalent faults share signatures, so ambiguity > 1, but the mean
  // candidate list should stay small.
  EXPECT_GE(dict.mean_ambiguity(), 1.0);
  EXPECT_LT(dict.mean_ambiguity(), 8.0);
}

TEST(Dictionary, UnknownSignatureGivesNoCandidates) {
  Fixture f;
  FaultDictionary dict(f.low.netlist, f.faults, f.stim);
  // Find a signature value not present.
  std::uint32_t sig = 0xDEADBEEF & 0xFFFFFF;
  while (!dict.diagnose(sig).empty()) ++sig;
  EXPECT_TRUE(dict.diagnose(sig).empty());
}

TEST(Dictionary, RejectsBadInputs) {
  Fixture f;
  EXPECT_THROW(FaultDictionary(f.low.netlist, f.faults, {}),
               precondition_error);
  EXPECT_THROW(FaultDictionary(f.low.netlist, f.faults, f.stim, 8),
               precondition_error);
  // Wider than any MISR: refused up front, before any simulation.
  EXPECT_THROW(FaultDictionary(f.low.netlist, f.faults, f.stim, 32),
               precondition_error);
}

} // namespace
} // namespace fdbist::bist
