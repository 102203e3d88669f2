#include <algorithm>
#include <cmath>
#include <gtest/gtest.h>
#include <numeric>
#include <random>

#include "common/env.hpp"
#include "designs/registry.hpp"
#include "fault/simulator.hpp"
#include "gate/schedule.hpp"
#include "rtl/fir_builder.hpp"
#include "rtl/linear_model.hpp"
#include "tpg/generators.hpp"

namespace fdbist::fault {
namespace {

// Small single-adder design observed directly at the output.
struct TinyAdder {
  rtl::Graph g;
  rtl::NodeId a, s, y;
  gate::LoweredDesign low;

  TinyAdder() {
    a = g.input(fx::Format{4, 0});
    const auto r = g.reg(a);
    s = g.add(a, r, fx::Format{5, 0}, "sum");
    y = g.output(s);
    low = gate::lower(g);
  }
};

TEST(Enumerate, CountsPerCellShape) {
  TinyAdder t;
  const auto collapsed = enumerate_adder_faults(t.low);
  EnumerateOptions raw_opt;
  raw_opt.collapse = false;
  const auto full = enumerate_adder_faults(t.low, raw_opt);
  EXPECT_GT(full.size(), collapsed.size());
  EXPECT_GT(collapsed.size(), 0u);
  // Every fault references a logic gate with an adder-cell role.
  for (const auto& f : collapsed) {
    const auto& og = t.low.netlist.origin(f.gate);
    EXPECT_NE(og.role, gate::CellRole::None);
    EXPECT_EQ(og.node, t.s);
  }
}

TEST(Enumerate, NoDuplicates) {
  TinyAdder t;
  auto faults = enumerate_adder_faults(t.low);
  auto key = [](const Fault& f) {
    return (static_cast<std::uint64_t>(f.gate) << 4) |
           (static_cast<std::uint64_t>(f.site) << 1) | f.stuck;
  };
  std::vector<std::uint64_t> keys;
  for (const auto& f : faults) keys.push_back(key(f));
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(std::adjacent_find(keys.begin(), keys.end()), keys.end());
}

TEST(Enumerate, RegistersContributeNoFaults) {
  rtl::Graph g;
  const auto x = g.input(fx::Format{4, 0});
  const auto r = g.reg(x);
  g.output(r);
  const auto low = gate::lower(g);
  EXPECT_TRUE(enumerate_adder_faults(low).empty());
}

TEST(Describe, MentionsLocation) {
  TinyAdder t;
  const auto faults = enumerate_adder_faults(t.low);
  const std::string s = describe(faults.front(), t.low.netlist, t.g);
  EXPECT_NE(s.find("sum"), std::string::npos);
  EXPECT_NE(s.find("s-a-"), std::string::npos);
}

TEST(BitsBelowMsb, MatchesOrigin) {
  TinyAdder t;
  for (const auto& f : enumerate_adder_faults(t.low)) {
    const int d = bits_below_msb(f, t.low.netlist, t.g);
    EXPECT_GE(d, 0);
    EXPECT_LE(d, 4);
  }
}

TEST(Order, IsPermutation) {
  TinyAdder t;
  auto faults = enumerate_adder_faults(t.low);
  auto ordered = order_for_simulation(faults, t.low.netlist, t.g);
  EXPECT_TRUE(std::is_permutation(
      faults.begin(), faults.end(), ordered.begin(), ordered.end(),
      [](const Fault& a, const Fault& b) { return a == b; }));
}

TEST(Order, MsbFaultsLast) {
  TinyAdder t;
  auto ordered = order_for_simulation(enumerate_adder_faults(t.low),
                                      t.low.netlist, t.g);
  // The last fault should be nearer the MSB than the first.
  const int first = bits_below_msb(ordered.front(), t.low.netlist, t.g);
  const int last = bits_below_msb(ordered.back(), t.low.netlist, t.g);
  EXPECT_GT(first, last);
}

// The universe order as first written: a stable sort whose comparator
// recomputes both faults' scores on every comparison, from a fresh
// linear analysis of the graph.
std::vector<Fault> comparator_order(std::vector<Fault> faults,
                                    const gate::Netlist& nl,
                                    const rtl::Graph& g) {
  const auto gains = rtl::variance_gains(rtl::analyze_linear(g));
  auto score = [&](const Fault& f) {
    const gate::GateOrigin& og = nl.origin(f.gate);
    const rtl::Node& nd = g.node(og.node);
    const double sigma = std::sqrt(gains[std::size_t(og.node)]) + 1e-12;
    const double full_scale = nd.fmt.real_max() + nd.fmt.lsb();
    return static_cast<double>(nd.fmt.width - 1 - og.bit) +
           std::log2(sigma / full_scale);
  };
  std::stable_sort(faults.begin(), faults.end(),
                   [&](const Fault& a, const Fault& b) {
                     return score(a) > score(b);
                   });
  return faults;
}

// Fault indices key verdict digests and checkpoints, so the keyed sort
// and the overload that reads FilterDesign::linear must reproduce the
// comparator's order exactly.
TEST(Order, KeyedSortMatchesTheComparatorOnEveryRegisteredDesign) {
  for (const auto& entry : designs::design_registry()) {
    const auto d = designs::make_design(entry.name);
    const auto low = gate::lower(d.graph);
    const auto faults = enumerate_adder_faults(low);
    const auto want = comparator_order(faults, low.netlist, d.graph);
    EXPECT_TRUE(order_for_simulation(faults, low.netlist, d.graph) == want)
        << entry.name;
    EXPECT_TRUE(order_for_simulation(faults, low.netlist, d) == want)
        << entry.name;
  }
}

TEST(Simulate, AllTinyAdderFaultsDetectedByExhaustiveStimulus) {
  TinyAdder t;
  const auto faults = enumerate_adder_faults(t.low);
  // All 16 input values several times over covers every (a, r) pair of
  // consecutive values... use a de Bruijn-ish sweep.
  std::vector<std::int64_t> stim;
  for (std::int64_t a = -8; a <= 7; ++a)
    for (std::int64_t b = -8; b <= 7; ++b) {
      stim.push_back(a);
      stim.push_back(b);
    }
  const auto res = simulate_faults(t.low.netlist, stim, faults);
  EXPECT_EQ(res.detected, res.total_faults)
      << res.missed() << " faults escaped an exhaustive stimulus";
}

TEST(Simulate, DetectCyclesAreFirstDifferences) {
  TinyAdder t;
  const auto faults = enumerate_adder_faults(t.low);
  std::vector<std::int64_t> stim;
  for (std::int64_t a = -8; a <= 7; ++a)
    for (std::int64_t b = -8; b <= 7; ++b) {
      stim.push_back(a);
      stim.push_back(b);
    }
  const auto res = simulate_faults(t.low.netlist, stim, faults);
  // Spot-check a handful of faults: re-simulate alone and confirm that
  // the output first differs exactly at detect_cycle.
  for (std::size_t fi = 0; fi < faults.size(); fi += 7) {
    gate::WordSim ws(t.low.netlist);
    ws.add_fault(faults[fi].gate, faults[fi].site, faults[fi].stuck,
                 std::uint64_t{1} << 1);
    std::int32_t first = -1;
    for (std::size_t n = 0; n < stim.size(); ++n) {
      ws.step_broadcast(stim[n]);
      if (ws.output_mismatch() & 2u) {
        first = static_cast<std::int32_t>(n);
        break;
      }
    }
    EXPECT_EQ(res.detect_cycle[fi], first) << "fault " << fi;
  }
}

TEST(Simulate, ZeroStimulusDetectsAlmostNothing) {
  TinyAdder t;
  const auto faults = enumerate_adder_faults(t.low);
  const std::vector<std::int64_t> stim(64, 0);
  const auto res = simulate_faults(t.low.netlist, stim, faults);
  // With an all-zero input only stuck-at-1 faults on a few sites can
  // propagate; most of the universe must remain undetected.
  EXPECT_LT(res.coverage(), 0.6);
  EXPECT_GT(res.detected, 0u); // s-a-1 on sum XORs shows immediately
}

TEST(Simulate, CoverageMonotoneInBudget) {
  TinyAdder t;
  const auto faults = enumerate_adder_faults(t.low);
  tpg::WhiteUniformSource src(4, 3);
  const auto stim = src.generate_raw(256);
  const auto res = simulate_faults(t.low.netlist, stim, faults);
  double prev = 0.0;
  for (const std::size_t v : {1u, 2u, 4u, 16u, 64u, 256u}) {
    const double c = res.coverage_at({v})[0];
    EXPECT_GE(c, prev);
    prev = c;
  }
  EXPECT_EQ(res.detected_by(stim.size()), res.detected);
}

TEST(Simulate, ResultInvariantUnderOrdering) {
  // Difficulty ordering is a pure perf heuristic: per-fault detection
  // cycles must be identical in any order.
  TinyAdder t;
  const auto faults = enumerate_adder_faults(t.low);
  const auto ordered =
      order_for_simulation(faults, t.low.netlist, t.g);
  tpg::WhiteUniformSource src(4, 11);
  const auto stim = src.generate_raw(128);
  const auto r1 = simulate_faults(t.low.netlist, stim, faults);
  const auto r2 = simulate_faults(t.low.netlist, stim, ordered);
  EXPECT_EQ(r1.detected, r2.detected);
  // Map fault -> cycle and compare.
  auto cycle_of = [&](const std::vector<Fault>& fs,
                      const FaultSimResult& r, const Fault& f) {
    for (std::size_t i = 0; i < fs.size(); ++i)
      if (fs[i] == f) return r.detect_cycle[i];
    return std::int32_t{-2};
  };
  for (std::size_t i = 0; i < faults.size(); i += 5)
    EXPECT_EQ(r1.detect_cycle[i], cycle_of(ordered, r2, faults[i]));

  // A registered design's whole universe, shuffled: simulate_faults
  // packs its batches by fault site, so batch composition — and with it
  // every work counter, survivor windows included (Ramp at 1024 vectors
  // climbs the window ladder) — is a function of the fault set.
  const auto d = designs::make_design("LP");
  const auto low = gate::lower(d.graph);
  const auto universe =
      order_for_simulation(enumerate_adder_faults(low), low.netlist, d);
  const std::uint64_t seed = common::test_seed(20261018);
  SCOPED_TRACE(common::seed_note(seed));
  std::vector<std::size_t> perm(universe.size());
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  std::mt19937_64 rng(seed);
  std::shuffle(perm.begin(), perm.end(), rng);
  std::vector<Fault> shuffled;
  for (const std::size_t i : perm) shuffled.push_back(universe[i]);
  auto gen = tpg::make_generator(tpg::GeneratorKind::Ramp, 12);
  const auto ramp = gen->generate_raw(1024);
  const auto a = simulate_faults(low.netlist, ramp, universe);
  const auto b = simulate_faults(low.netlist, ramp, shuffled);
  EXPECT_EQ(a.detected, b.detected);
  for (std::size_t k = 0; k < perm.size(); ++k) {
    ASSERT_EQ(b.detect_cycle[k], a.detect_cycle[perm[k]]) << "fault " << k;
    ASSERT_EQ(b.finalized[k], a.finalized[perm[k]]) << "fault " << k;
  }
  EXPECT_EQ(b.good_outputs, a.good_outputs);
  const FaultSimStats& x = a.stats;
  const FaultSimStats& y = b.stats;
  EXPECT_EQ(y.engine, x.engine);
  EXPECT_EQ(y.batches, x.batches);
  EXPECT_EQ(y.cycles_simulated, x.cycles_simulated);
  EXPECT_EQ(y.cycles_budgeted, x.cycles_budgeted);
  EXPECT_EQ(y.segment_overhead_cycles, x.segment_overhead_cycles);
  EXPECT_EQ(y.gates_evaluated, x.gates_evaluated);
  EXPECT_EQ(y.gates_full_sweep, x.gates_full_sweep);
  EXPECT_EQ(y.good_trace_cycles, x.good_trace_cycles);
  EXPECT_DOUBLE_EQ(y.cone_fraction_sum, x.cone_fraction_sum);
  EXPECT_EQ(y.lane_width, x.lane_width);
  EXPECT_EQ(y.simd, x.simd);
}

TEST(Simulate, MoreThan63FaultsSpanBatches) {
  // A multi-adder design overflows one batch; counts must still add up.
  auto d = rtl::build_fir({0.3, -0.42, 0.11, -0.07}, {}, "multi");
  const auto low = gate::lower(d.graph);
  const auto faults = enumerate_adder_faults(low);
  ASSERT_GT(faults.size(), 63u);
  tpg::WhiteUniformSource src(12, 5);
  const auto stim = src.generate_raw(512);
  const auto res = simulate_faults(low.netlist, stim, faults);
  EXPECT_EQ(res.total_faults, faults.size());
  EXPECT_EQ(res.detect_cycle.size(), faults.size());
  std::size_t detected = 0;
  for (const auto c : res.detect_cycle)
    if (c >= 0) ++detected;
  EXPECT_EQ(detected, res.detected);
  EXPECT_GT(res.coverage(), 0.9);
}

TEST(Simulate, RejectsBadInputs) {
  TinyAdder t;
  const auto faults = enumerate_adder_faults(t.low);
  EXPECT_THROW(simulate_faults(t.low.netlist, {}, faults),
               precondition_error);
}

TEST(Simulate, AutoEngineResolvesFromTheTraceSize) {
  // Auto runs the compiled engine unless its good trace would not fit
  // the memory cap. The decision allocates nothing, so it can be asked
  // about a budget far beyond anything a test could simulate.
  const auto design = designs::make_design("LP");
  const auto low = gate::lower(design.graph);
  constexpr std::size_t kHuge = std::size_t{1} << 20;
  ASSERT_GT(gate::GoodTrace::bytes_needed(low.netlist.size(), kHuge),
            std::size_t{512} << 20);
  FaultSimOptions opt;
  EXPECT_EQ(resolve_engine(low.netlist, 4096, opt), FaultSimEngine::Compiled);
  EXPECT_EQ(resolve_engine(low.netlist, kHuge, opt),
            FaultSimEngine::FullSweep);
  for (const auto e : {FaultSimEngine::Compiled, FaultSimEngine::FullSweep}) {
    opt.engine = e;
    EXPECT_EQ(resolve_engine(low.netlist, 4096, opt), e);
    EXPECT_EQ(resolve_engine(low.netlist, kHuge, opt), e);
  }
}

TEST(Simulate, ProgressCallbackRuns) {
  TinyAdder t;
  const auto faults = enumerate_adder_faults(t.low);
  tpg::WhiteUniformSource src(4, 3);
  const auto stim = src.generate_raw(64);
  std::size_t calls = 0;
  std::size_t last_done = 0;
  FaultSimOptions opt;
  opt.progress = [&](std::size_t done, std::size_t total) {
    ++calls;
    last_done = done;
    EXPECT_EQ(total, faults.size());
  };
  simulate_faults(t.low.netlist, stim, faults, opt);
  EXPECT_GT(calls, 0u);
  EXPECT_EQ(last_done, faults.size());
}

} // namespace
} // namespace fdbist::fault
