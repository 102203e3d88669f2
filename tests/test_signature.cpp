// In-kernel signature compaction (FaultSimOptions::signature) against a
// literal bist::Misr reference: for every registered design, the
// bit-sliced difference-MISR word must equal "simulate the fault
// serially, run a real MISR over the good and faulty output streams,
// XOR the final signatures" — for a register wider than the output word
// (it absorbs the sign-extended word), the identity width, and narrow
// widths where output bits fold onto MISR bit o mod width. On top of the reference equality: signature detection
// implies word-compare detection, measured aliasing honors the
// 2 + 64*N*2^-w expectation, malformed configurations are refused, and
// signature runs take the full vector budget (no early exit may cut the
// MISR's absorption short).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cmath>
#include <span>
#include <vector>

#include "bist/misr.hpp"
#include "common/xoshiro.hpp"
#include "designs/registry.hpp"
#include "fault/fault.hpp"
#include "fault/simulator.hpp"
#include "gate/lower.hpp"
#include "gate/sim.hpp"
#include "tpg/lfsr.hpp"

namespace fdbist::fault {
namespace {

struct SigFixture {
  rtl::FilterDesign design;
  gate::LoweredDesign low;
  std::vector<Fault> faults;
  std::vector<std::int64_t> stim;
};

/// A stride-sampled fault universe and a full-range random stimulus at
/// the design's own input width (24-bit packed words for DEC2).
SigFixture make_fixture(const std::string& name, std::size_t max_faults,
                        std::size_t vectors) {
  SigFixture f{designs::make_design(name), {}, {}, {}};
  f.low = gate::lower(f.design.graph);
  auto all = order_for_simulation(enumerate_adder_faults(f.low),
                                  f.low.netlist, f.design.graph);
  const std::size_t stride = std::max<std::size_t>(all.size() / max_faults, 1);
  for (std::size_t i = 0; i < all.size(); i += stride)
    f.faults.push_back(all[i]);
  Xoshiro256 rng(7);
  const auto fmt = f.design.graph.node(f.design.input).fmt;
  for (std::size_t t = 0; t < vectors; ++t)
    f.stim.push_back(std::int64_t(rng() % (1ull << fmt.width)) -
                     (std::int64_t(1) << (fmt.width - 1)));
  return f;
}

/// The kernel's output-to-MISR wiring as a word transform on the
/// sign-extended output word (collect_signature_nets). A register at
/// least as wide as the word absorbs the word itself — bist::Misr keeps
/// its low `width` bits, so bits out_w.. take the sign bit. A narrower
/// one absorbs the fold: keep the low `out_w` bits, then XOR the
/// `width`-bit chunks together (chunk j carries output bits j*width ..),
/// so bit b is the XOR of output bits b, b+width, b+2*width, ...
std::uint64_t register_input(std::uint64_t word, std::size_t out_w,
                             int width) {
  if (std::size_t(width) >= out_w) return word;
  if (out_w < 64) word &= (std::uint64_t{1} << out_w) - 1;
  std::uint64_t r = 0;
  for (std::size_t j = 0; j * std::size_t(width) < out_w; ++j)
    r ^= word >> (j * std::size_t(width));
  return r & ((std::uint64_t{1} << width) - 1);
}

/// Serial reference difference words: inject the fault into lane 1 of a
/// plain WordSim, drive both machines through the stimulus, absorb each
/// width's register input into two real MISRs, and return the final
/// faulty ^ good signature per width.
std::vector<std::uint32_t> misr_reference_differences(
    const SigFixture& f, const Fault& fault, std::span<const int> widths) {
  const auto& group = f.low.netlist.outputs().front();
  gate::WordSim sim(f.low.netlist);
  sim.add_fault(fault.gate, fault.site, fault.stuck, 2u);
  std::vector<bist::Misr> good;
  std::vector<bist::Misr> faulty;
  for (const int width : widths) {
    good.emplace_back(tpg::default_polynomial(width), 0xdead);
    faulty.emplace_back(tpg::default_polynomial(width), 0xdead);
  }
  for (const std::int64_t v : f.stim) {
    sim.step_broadcast(v);
    const auto g = std::uint64_t(sim.lane_value(group, 0));
    const auto y = std::uint64_t(sim.lane_value(group, 1));
    for (std::size_t k = 0; k < widths.size(); ++k) {
      good[k].absorb(register_input(g, group.size(), widths[k]));
      faulty[k].absorb(register_input(y, group.size(), widths[k]));
    }
  }
  std::vector<std::uint32_t> out;
  for (std::size_t k = 0; k < widths.size(); ++k)
    out.push_back(faulty[k].signature() ^ good[k].signature());
  return out;
}

FaultSimResult run_with_signature(const SigFixture& f, int width,
                                  FaultSimEngine engine) {
  FaultSimOptions opt;
  opt.num_threads = 1;
  opt.engine = engine;
  opt.signature.width = width;
  opt.signature.taps = tpg::default_polynomial(width).low_terms;
  return simulate_faults(f.low.netlist, f.stim, f.faults, opt);
}

TEST(SignatureCompaction, KernelMatchesSerialMisrReferenceEveryFamily) {
  // A register wider than the output word (24 bits: the sign bit fills
  // bits 16..23 of every registered design's 16-bit word), the identity
  // width and a narrow folded width, on every registered design: each
  // fault's difference word from the simulate_faults overload must
  // equal faulty ^ good of the two-real-MISRs reference, and its
  // verdict must be that word != 0. The seeds differ (the kernel's
  // difference register starts at zero) — MISR linearity over GF(2) is
  // what makes the seed cancel, and this is the test that the kernel
  // actually implements that algebra.
  constexpr int kWidths[] = {24, 16, 9};
  for (const auto& entry : designs::design_registry()) {
    const SigFixture f = make_fixture(entry.name, 90, 220);
    std::vector<std::vector<std::uint32_t>> words;
    for (const int width : kWidths) {
      FaultSimOptions opt;
      opt.num_threads = 1;
      opt.signature = {width, tpg::default_polynomial(width).low_terms};
      std::vector<std::uint32_t> difference;
      const auto r =
          simulate_faults(f.low.netlist, f.stim, f.faults, opt, difference);
      ASSERT_EQ(difference.size(), f.faults.size());
      ASSERT_EQ(r.signature_detect.size(), f.faults.size());
      for (std::size_t i = 0; i < f.faults.size(); ++i)
        ASSERT_EQ(r.signature_detect[i] != 0, difference[i] != 0)
            << entry.name << " width " << width << " fault " << i;
      words.push_back(std::move(difference));
    }
    for (std::size_t i = 0; i < f.faults.size(); ++i) {
      const auto ref = misr_reference_differences(f, f.faults[i], kWidths);
      for (std::size_t k = 0; k < ref.size(); ++k)
        ASSERT_EQ(words[k][i], ref[k])
            << entry.name << " width " << kWidths[k] << " fault " << i;
    }
  }
}

TEST(SignatureCompaction, EnginesAgreeOnSignatureVerdicts) {
  for (const auto& entry : designs::design_registry()) {
    const SigFixture f = make_fixture(entry.name, 120, 200);
    const auto compiled = run_with_signature(f, 12, FaultSimEngine::Compiled);
    const auto sweep = run_with_signature(f, 12, FaultSimEngine::FullSweep);
    EXPECT_EQ(compiled.detect_cycle, sweep.detect_cycle) << entry.name;
    EXPECT_EQ(compiled.signature_detect, sweep.signature_detect)
        << entry.name;
  }
}

TEST(SignatureCompaction, SignatureDetectionImpliesWordDetection) {
  // The difference MISR of an identical stream is provably zero, so a
  // fault the word compare never sees can never flip the signature.
  for (const char* name : {"IIR4", "DEC2"}) {
    const SigFixture f = make_fixture(name, 150, 256);
    const auto r = run_with_signature(f, 8, FaultSimEngine::Auto);
    for (std::size_t i = 0; i < f.faults.size(); ++i) {
      if (r.signature_detect[i] != 0) {
        EXPECT_GE(r.detect_cycle[i], 0) << name << " fault " << i;
      }
    }
    EXPECT_EQ(r.signature_detected() + r.aliased(), r.detected);
  }
}

TEST(SignatureCompaction, MeasuredAliasingHonorsTheExpectation) {
  // The acceptance envelope the CLI prints: aliased < 2 + 64*N*2^-w.
  // This only holds because narrow MISRs fold the full output word in —
  // an unfolded width-w register would miss every fault visible only in
  // the truncated upper output bits and alias unconditionally.
  for (const auto& entry : designs::design_registry()) {
    const SigFixture f = make_fixture(entry.name, 200, 256);
    for (const int width : {8, 12}) {
      const auto r = run_with_signature(f, width, FaultSimEngine::Auto);
      const double bound =
          2.0 + 64.0 * double(r.detected) * std::ldexp(1.0, -width);
      EXPECT_LT(double(r.aliased()), bound)
          << entry.name << " width " << width << ": aliased " << r.aliased()
          << " of " << r.detected << " detected";
    }
  }
}

TEST(SignatureCompaction, SignatureRunsAbsorbTheFullBudget) {
  // Early exit would cut MISR absorption short, so a signature run must
  // simulate every budgeted cycle; without compaction the engine is free
  // to stop a batch once all its faults are detected.
  const SigFixture f = make_fixture("IIR4", 200, 256);
  const auto sig = run_with_signature(f, 12, FaultSimEngine::Auto);
  EXPECT_EQ(sig.stats.cycles_simulated, sig.stats.cycles_budgeted);
  FaultSimOptions plain;
  plain.num_threads = 1;
  const auto word = simulate_faults(f.low.netlist, f.stim, f.faults, plain);
  EXPECT_LE(word.stats.cycles_simulated, word.stats.cycles_budgeted);
  EXPECT_EQ(sig.detect_cycle, word.detect_cycle)
      << "compaction must not disturb word-compare ground truth";
}

TEST(SignatureCompaction, MalformedConfigurationsAreRefused) {
  const SigFixture f = make_fixture("LP", 40, 32);
  for (const int width : {1, 32, -3}) {
    FaultSimOptions opt;
    opt.signature.width = width;
    opt.signature.taps = 0x9;
    EXPECT_THROW(simulate_faults(f.low.netlist, f.stim, f.faults, opt),
                 precondition_error)
        << "width " << width;
  }
  FaultSimOptions no_taps;
  no_taps.signature.width = 12;
  no_taps.signature.taps = 0; // degree term only: not a polynomial
  EXPECT_THROW(simulate_faults(f.low.netlist, f.stim, f.faults, no_taps),
               precondition_error);
  FaultSimOptions wide_taps;
  wide_taps.signature.width = 4;
  wide_taps.signature.taps = 0x100; // term at/above the degree
  EXPECT_THROW(simulate_faults(f.low.netlist, f.stim, f.faults, wide_taps),
               precondition_error);
  // Difference words only exist when the run compacts.
  std::vector<std::uint32_t> difference;
  EXPECT_THROW(
      simulate_faults(f.low.netlist, f.stim, f.faults, {}, difference),
      precondition_error);
}

} // namespace
} // namespace fdbist::fault
