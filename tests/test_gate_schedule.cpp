// The compiled simulation IR (gate/schedule.hpp): SoA arrays must mirror
// the netlist, the fan-out CSR must match a brute-force scan, cones must
// equal brute-force reachability closed through registers, and the
// cone-restricted engine must be bit-identical to the full-sweep
// reference — on small netlists, randomized lowered netlists, and all
// three paper filters.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "common/env.hpp"
#include "designs/registry.hpp"
#include "fault/serial.hpp"
#include "fault/simulator.hpp"
#include "gate/lower.hpp"
#include "gate/schedule.hpp"
#include "gate/sim.hpp"
#include "rtl/fir_builder.hpp"
#include "tpg/generators.hpp"
#include "tpg/lfsr.hpp"

namespace fdbist::gate {
namespace {

LoweredDesign lowered_fir(const std::vector<double>& coefs,
                          const char* name) {
  return lower(rtl::build_fir(coefs, {}, name).graph);
}

// Brute-force successor scan: every gate reading net `id`, plus the Q
// net of a register whose D pin is `id`.
std::set<NetId> brute_fanout(const Netlist& nl, NetId id) {
  std::set<NetId> out;
  for (std::size_t i = 0; i < nl.size(); ++i) {
    const Gate& g = nl.gate(static_cast<NetId>(i));
    if (g.a == id || g.b == id) out.insert(static_cast<NetId>(i));
  }
  for (const RegBit& r : nl.registers())
    if (r.d == id) out.insert(r.q);
  return out;
}

// Brute-force transitive fan-out closure through registers.
std::set<NetId> brute_cone(const Netlist& nl, std::vector<NetId> frontier) {
  std::set<NetId> cone(frontier.begin(), frontier.end());
  while (!frontier.empty()) {
    const NetId g = frontier.back();
    frontier.pop_back();
    for (const NetId s : brute_fanout(nl, g))
      if (cone.insert(s).second) frontier.push_back(s);
  }
  return cone;
}

TEST(CompiledSchedule, SoAMirrorsNetlist) {
  const auto low = lowered_fir({0.3, -0.42, 0.11}, "soa");
  const CompiledSchedule sched(low.netlist);
  ASSERT_EQ(sched.size(), low.netlist.size());
  EXPECT_EQ(sched.logic_gates(), low.netlist.logic_gate_count());
  for (std::size_t i = 0; i < sched.size(); ++i) {
    const Gate& g = low.netlist.gate(static_cast<NetId>(i));
    EXPECT_EQ(sched.ops()[i], g.op);
    EXPECT_EQ(sched.operand_a()[i], g.a);
    EXPECT_EQ(sched.operand_b()[i], g.b);
  }
}

TEST(CompiledSchedule, FanoutMatchesBruteForce) {
  const auto low = lowered_fir({0.22, -0.31, 0.085, -0.05}, "fan");
  const CompiledSchedule sched(low.netlist);
  for (std::size_t i = 0; i < sched.size(); ++i) {
    const auto id = static_cast<NetId>(i);
    const auto expect = brute_fanout(low.netlist, id);
    const auto got = sched.fanout(id);
    ASSERT_EQ(got.size(), expect.size()) << "net " << i;
    EXPECT_TRUE(std::equal(got.begin(), got.end(), expect.begin()))
        << "net " << i;
  }
}

TEST(CompiledSchedule, ConeMatchesBruteForceReachability) {
  const auto low = lowered_fir({0.27, -0.19, 0.13}, "cone");
  const Netlist& nl = low.netlist;
  const CompiledSchedule sched(nl);
  CompiledSchedule::ConeWorkspace ws;
  CompiledSchedule::Cone cone;
  for (std::size_t i = 0; i < nl.size(); ++i) {
    const auto id = static_cast<NetId>(i);
    const GateOp op = nl.gate(id).op;
    if (op != GateOp::Not && op != GateOp::And && op != GateOp::Or &&
        op != GateOp::Xor)
      continue;
    sched.collect_cone({&id, 1}, ws, cone);
    const auto expect = brute_cone(nl, {id});

    std::set<NetId> got(cone.gates.begin(), cone.gates.end());
    for (const std::int32_t r : cone.regs)
      got.insert(nl.registers()[std::size_t(r)].q);
    EXPECT_EQ(got, expect) << "site " << i;

    // The evaluation schedule is topologically ordered, members only.
    EXPECT_TRUE(std::is_sorted(cone.gates.begin(), cone.gates.end()));
    // Every in-cone operand is either in-cone or on the boundary, and
    // the boundary is disjoint from the cone.
    std::set<NetId> boundary(cone.boundary.begin(), cone.boundary.end());
    for (const NetId g : cone.gates) {
      for (const NetId src : {nl.gate(g).a, nl.gate(g).b}) {
        if (src == kNoNet) continue;
        EXPECT_TRUE(expect.count(src) == 1 || boundary.count(src) == 1)
            << "dangling operand " << src << " of gate " << g;
        EXPECT_FALSE(expect.count(src) == 1 && boundary.count(src) == 1);
      }
    }
  }
}

TEST(CompiledSchedule, ConesCloseThroughRegisters) {
  // In a transposed-form FIR every tap feeds the accumulation chain
  // through delay registers, so a fault site that reaches any register D
  // pin must pull the register's Q (and its readers) into the cone.
  const auto low = lowered_fir({0.4, 0.25, -0.125}, "regs");
  const Netlist& nl = low.netlist;
  const CompiledSchedule sched(nl);
  CompiledSchedule::ConeWorkspace ws;
  CompiledSchedule::Cone cone;
  bool saw_register_closure = false;
  for (std::size_t i = 0; i < nl.size() && !saw_register_closure; ++i) {
    const auto id = static_cast<NetId>(i);
    const GateOp op = nl.gate(id).op;
    if (op != GateOp::And && op != GateOp::Xor && op != GateOp::Or) continue;
    sched.collect_cone({&id, 1}, ws, cone);
    if (cone.regs.empty()) continue;
    saw_register_closure = true;
    const auto expect = brute_cone(nl, {id});
    for (const std::int32_t r : cone.regs) {
      const RegBit& reg = nl.registers()[std::size_t(r)];
      EXPECT_EQ(expect.count(reg.q), 1u);
      EXPECT_EQ(expect.count(reg.d), 1u)
          << "Q in cone requires its D source in cone";
    }
  }
  EXPECT_TRUE(saw_register_closure)
      << "fixture has no fault site reaching a register";
}

// A 4-bit ripple-carry adder as lowering emits it: the LSB cell's carry-in
// is folded (x1 is the sum, a1 the carry), the MSB cell has no carry-out,
// and the two middle cells are the full five-gate pattern. `shared_x1`
// adds a gate reading that middle cell's x1; `observed_a1` makes that
// middle cell's a1 an observed output.
struct Ripple4 {
  Netlist nl;
  NetId x1[4] = {};
};

Ripple4 ripple4(int shared_x1 = -1, int observed_a1 = -1) {
  Ripple4 r;
  Netlist& nl = r.nl;
  std::vector<NetId> a(4), b(4);
  for (NetId& n : a) n = nl.add_gate(GateOp::Input);
  for (NetId& n : b) n = nl.add_gate(GateOp::Input);
  std::vector<NetId> sum(4);
  std::vector<NetId> a1(4, kNoNet);
  r.x1[0] = nl.add_gate(GateOp::Xor, a[0], b[0]);
  sum[0] = r.x1[0];
  NetId carry = nl.add_gate(GateOp::And, a[0], b[0]);
  for (int i = 1; i < 4; ++i) {
    r.x1[i] = nl.add_gate(GateOp::Xor, a[i], b[i]);
    sum[i] = nl.add_gate(GateOp::Xor, r.x1[i], carry);
    if (i == 3) break;
    a1[i] = nl.add_gate(GateOp::And, b[i], a[i]); // either operand order
    const NetId a2 = nl.add_gate(GateOp::And, carry, r.x1[i]);
    carry = nl.add_gate(GateOp::Or, a1[i], a2);
  }
  std::vector<NetId> observed = sum;
  if (shared_x1 >= 0)
    observed.push_back(nl.add_gate(GateOp::Not, r.x1[shared_x1]));
  if (observed_a1 >= 0) observed.push_back(a1[std::size_t(observed_a1)]);
  std::vector<NetId> in = a;
  in.insert(in.end(), b.begin(), b.end());
  nl.inputs() = {in};
  nl.outputs() = {observed};
  return r;
}

// The x1 nets of the cells a schedule found.
std::vector<NetId> found_cells(const Netlist& nl) {
  const CompiledSchedule sched(nl);
  std::vector<NetId> x1;
  for (const auto& cell : sched.adder_cells()) x1.push_back(cell.x1);
  return x1;
}

TEST(CompiledSchedule, FindsFullAdderCells) {
  const Ripple4 r = ripple4();
  const CompiledSchedule sched(r.nl);
  const auto cells = sched.adder_cells();
  // The middle cells are found; the LSB and MSB partial cells are not.
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[0].x1, r.x1[1]);
  EXPECT_EQ(cells[1].x1, r.x1[2]);
  for (int bit : {0, 3}) EXPECT_EQ(sched.cell_of(r.x1[bit]), -1) << bit;
  for (NetId g = r.x1[1]; g < r.x1[1] + 5; ++g) EXPECT_EQ(sched.cell_of(g), 0);
  // Cell 1's carry feeds only cell 2, which is the link a run follows;
  // cell 2's carry feeds the MSB's sum alone, which is no cell.
  EXPECT_EQ(cells[0].next, 1);
  EXPECT_EQ(cells[1].next, -1);
  EXPECT_EQ(cells[1].c, cells[0].carry_out());

  // An extra reader of one cell's x1, or its a1 observed, un-finds
  // exactly that cell.
  for (int bit : {1, 2}) {
    const int other = 3 - bit;
    const Ripple4 shared = ripple4(bit, -1);
    EXPECT_EQ(found_cells(shared.nl), std::vector<NetId>{shared.x1[other]})
        << "x1 of bit " << bit << " read outside its cell";
    const Ripple4 observed = ripple4(-1, bit);
    EXPECT_EQ(found_cells(observed.nl),
              std::vector<NetId>{observed.x1[other]})
        << "a1 of bit " << bit << " observed";
  }

  // On LP: 966 cells (4,830 of its 5,764 logic gates). 38 more match
  // the five-gate pattern but share an inner gate with another adder
  // through lowering's structural hashing. Each found cell's gates
  // carry the full-adder roles lowering gave them.
  const auto low = lower(designs::make_design("LP").graph);
  const CompiledSchedule lp(low.netlist);
  EXPECT_EQ(lp.logic_gates(), 5764u);
  ASSERT_EQ(lp.adder_cells().size(), 966u);
  const CellRole roles[5] = {CellRole::SumXor1, CellRole::SumXor2,
                             CellRole::CarryAnd1, CellRole::CarryAnd2,
                             CellRole::CarryOr};
  for (const auto& cell : lp.adder_cells())
    for (int j = 0; j < 5; ++j)
      ASSERT_EQ(low.netlist.origin(cell.x1 + j).role, roles[j])
          << "cell at " << cell.x1 << " gate " << j;
}

// Settle depth of a hand-built netlist with one input and one output bit.
std::optional<std::size_t> settle_depth(Netlist& nl, NetId x, NetId out) {
  nl.inputs() = {{x}};
  nl.outputs() = {{out}};
  return CompiledSchedule(nl).settle_depth();
}

TEST(SettleDepth, RegisterChainOfLengthK) {
  for (const std::size_t k : {1u, 2u, 5u}) {
    Netlist nl;
    const NetId x = nl.add_gate(GateOp::Input);
    NetId d = nl.add_gate(GateOp::Not, x);
    for (std::size_t i = 0; i < k; ++i) {
      const NetId q = nl.add_gate(GateOp::RegOut);
      nl.registers().push_back({d, q});
      d = nl.add_gate(GateOp::Not, q);
    }
    EXPECT_EQ(settle_depth(nl, x, d), k) << k << " registers";
  }
}

TEST(SettleDepth, SelfFedRegisterHasNone) {
  Netlist nl;
  const NetId x = nl.add_gate(GateOp::Input);
  const NetId q = nl.add_gate(GateOp::RegOut);
  const NetId d = nl.add_gate(GateOp::Xor, q, x);
  nl.registers().push_back({d, q});
  EXPECT_FALSE(settle_depth(nl, x, d).has_value());
}

TEST(SettleDepth, ConstantDrivenRegisterIsOne) {
  Netlist nl;
  const NetId x = nl.add_gate(GateOp::Input);
  const NetId one = nl.add_gate(GateOp::Const1);
  const NetId q = nl.add_gate(GateOp::RegOut);
  nl.registers().push_back({one, q});
  const NetId y = nl.add_gate(GateOp::And, q, x);
  EXPECT_EQ(settle_depth(nl, x, y), 1u);
}

TEST(SettleDepth, NoRegistersIsZero) {
  Netlist nl;
  const NetId x = nl.add_gate(GateOp::Input);
  const NetId y = nl.add_gate(GateOp::Not, x);
  EXPECT_EQ(settle_depth(nl, x, y), 0u);
}

TEST(SettleDepth, RegisteredDesigns) {
  const std::map<std::string, std::optional<std::size_t>> want = {
      {"LP", 60}, {"BP", 58}, {"HP", 61}, {"DEC2", 16}, {"IIR4", {}}};
  for (const auto& entry : designs::design_registry()) {
    const auto d = designs::make_design(entry.name);
    const auto low = lower(d.graph);
    ASSERT_EQ(want.count(entry.name), 1u) << entry.name;
    EXPECT_EQ(CompiledSchedule(low.netlist).settle_depth(),
              want.at(entry.name))
        << entry.name;
  }
}

// The lane-0 reference: a sequential step_broadcast sweep, packed into
// GoodTrace's row layout.
std::vector<std::uint64_t> lane_zero_rows(const CompiledSchedule& sched,
                                          std::span<const std::int64_t> stim) {
  const std::size_t n = sched.size();
  const std::size_t wpc = (n + 63) / 64;
  std::vector<std::uint64_t> rows(wpc * stim.size(), 0);
  WordSim sim(sched);
  for (std::size_t t = 0; t < stim.size(); ++t) {
    sim.step_broadcast(stim[t]);
    for (std::size_t i = 0; i < n; ++i)
      rows[t * wpc + i / 64] |= (sim.net(static_cast<NetId>(i)) & 1u)
                                << (i % 64);
  }
  return rows;
}

// Every trace length must reproduce the reference's leading rows. The
// lengths straddle the segment boundaries: S = 1 with fewer than 64
// lanes (1, 2, 63), S = 1 over all 64 lanes (64), S = 2 and 3 with the
// last lane part-filled (65, 129) and full (128), and the paper budget.
void expect_trace_matches_lane_zero(const Netlist& nl,
                                    std::span<const std::int64_t> stim,
                                    const std::string& what) {
  const CompiledSchedule sched(nl);
  const auto want = lane_zero_rows(sched, stim);
  const std::size_t wpc = (sched.size() + 63) / 64;
  for (const std::size_t len : {1, 2, 63, 64, 65, 128, 129, 4096}) {
    ASSERT_LE(len, stim.size());
    const auto trace = record_good_trace(sched, stim, len);
    ASSERT_EQ(trace.cycles, len) << what;
    ASSERT_EQ(trace.words_per_cycle, wpc) << what;
    ASSERT_EQ(trace.bits.size(), len * wpc) << what;
    const auto bad =
        std::mismatch(trace.bits.begin(), trace.bits.end(), want.begin());
    if (bad.first != trace.bits.end()) {
      const auto at = std::size_t(bad.first - trace.bits.begin());
      FAIL() << what << " length " << len << ": cycle " << at / wpc
             << " word " << at % wpc << " differs from the lane-0 sweep";
    }
  }
}

TEST(GoodTrace, MatchesFullSimulationLaneZero) {
  // IIR4 has no carry-save form (carry-save needs a feedback-free
  // datapath).
  const std::set<std::string> carry_save = {"LP", "BP", "HP", "DEC2"};
  for (const auto& entry : designs::design_registry()) {
    const auto d = designs::make_design(entry.name);
    auto gen = tpg::make_generator(tpg::GeneratorKind::LfsrD,
                                   d.stats().width_in);
    const auto stim = gen->generate_raw(4096);
    expect_trace_matches_lane_zero(lower(d.graph).netlist, stim,
                                   entry.name + "/ripple");
    if (carry_save.count(entry.name) != 0)
      expect_trace_matches_lane_zero(lower_carry_save(d).netlist, stim,
                                     entry.name + "/carry-save");
  }
}

TEST(GoodTrace, SelfInvertingRegisterNeedsEverySweep) {
  // A register fed by its own inverse never forgets its initial state:
  // with an odd segment length every lane's start state is wrong until
  // the lane below it is exact, so the recorder's fixed point takes one
  // sweep per lane (64 at length 64, where S = 1).
  Netlist nl;
  const NetId x = nl.add_gate(GateOp::Input);
  const NetId q = nl.add_gate(GateOp::RegOut);
  const NetId d = nl.add_gate(GateOp::Not, q);
  const NetId y = nl.add_gate(GateOp::Xor, q, x);
  nl.registers().push_back({d, q});
  nl.inputs() = {{x}};
  nl.outputs() = {{y}};
  auto gen = tpg::make_generator(tpg::GeneratorKind::LfsrD, 12);
  const auto stim = gen->generate_raw(4096);
  expect_trace_matches_lane_zero(nl, stim, "toggle");
}

// The heart of the refactor: the cone-restricted compiled engine must be
// bit-identical to the retained full-sweep reference.
void expect_engines_identical(const Netlist& nl,
                              std::span<const std::int64_t> stim,
                              std::span<const fault::Fault> faults,
                              std::size_t threads,
                              fault::FaultSimStats* compiled = nullptr) {
  fault::FaultSimOptions ref;
  ref.num_threads = threads;
  ref.engine = fault::FaultSimEngine::FullSweep;
  fault::FaultSimOptions cone;
  cone.num_threads = threads;
  cone.engine = fault::FaultSimEngine::Compiled;
  const auto a = fault::simulate_faults(nl, stim, faults, ref);
  const auto b = fault::simulate_faults(nl, stim, faults, cone);
  EXPECT_EQ(a.stats.engine, fault::FaultSimEngine::FullSweep);
  EXPECT_EQ(b.stats.engine, fault::FaultSimEngine::Compiled);
  EXPECT_EQ(a.detected, b.detected);
  ASSERT_EQ(a.detect_cycle.size(), b.detect_cycle.size());
  for (std::size_t i = 0; i < a.detect_cycle.size(); ++i)
    ASSERT_EQ(a.detect_cycle[i], b.detect_cycle[i])
        << "fault " << i << " at " << threads << " threads";
  EXPECT_EQ(a.finalized, b.finalized);
  // The compiled engine must actually restrict: strictly fewer gate
  // evaluations than the sweep it replaces, same simulated cycles.
  EXPECT_EQ(a.stats.cycles_simulated, b.stats.cycles_simulated);
  EXPECT_LT(b.stats.gates_evaluated, b.stats.gates_full_sweep);
  EXPECT_LE(b.stats.mean_cone_fraction(), 1.0);
  if (compiled != nullptr) *compiled = b.stats;
}

TEST(EngineEquivalence, RandomizedLoweredNetlists) {
  const std::uint64_t seed = common::test_seed(20260806);
  SCOPED_TRACE(common::seed_note(seed));
  std::mt19937 rng(static_cast<std::mt19937::result_type>(seed));
  std::uniform_real_distribution<double> coef(-0.5, 0.5);
  std::uniform_int_distribution<int> ntaps(2, 7);
  for (int design = 0; design < 6; ++design) {
    std::vector<double> coefs(std::size_t(ntaps(rng)));
    double l1 = 0.0;
    for (double& c : coefs) {
      c = coef(rng);
      if (c == 0.0) c = 0.25;
      l1 += std::abs(c);
    }
    // The builder requires the coefficient L1 norm (plus truncation
    // slack) to fit the output format; scale below 1.0.
    if (l1 > 0.85)
      for (double& c : coefs) c *= 0.85 / l1;
    const auto low = lowered_fir(coefs, "rand");
    const auto faults = fault::enumerate_adder_faults(low);
    auto gen = tpg::make_generator(tpg::GeneratorKind::LfsrD, 12);
    const auto stim = gen->generate_raw(96);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}})
      expect_engines_identical(low.netlist, stim, faults, threads);
  }
}

TEST(EngineEquivalence, PaperFiltersAllThreadCounts) {
  // All three reference designs (Table 1), against a stride-sampled
  // fault universe so the test spans many batches in seconds: the
  // acceptance oracle is bit-identity for num_threads in {1, 2, 0}.
  for (const char* name : {"LP", "BP", "HP"}) {
    const auto d = designs::make_design(name);
    const auto low = lower(d.graph);
    const auto all = fault::order_for_simulation(
        fault::enumerate_adder_faults(low), low.netlist, d.graph);
    std::vector<fault::Fault> faults;
    for (std::size_t i = 0; i < all.size(); i += 97) faults.push_back(all[i]);
    ASSERT_GT(faults.size(), std::size_t{2} * 63);
    auto gen = tpg::make_generator(tpg::GeneratorKind::LfsrD, 12);
    const auto stim = gen->generate_raw(160);
    for (const std::size_t threads :
         {std::size_t{1}, std::size_t{2}, std::size_t{0}})
      expect_engines_identical(low.netlist, stim, faults, threads);
  }
}

TEST(EngineEquivalence, EveryRegisteredFamilyAllThreadCounts) {
  // The tentpole bit-identity sweep widened to the whole registry: the
  // IIR biquad cascade closes cones through its feedback registers and
  // the decimator routes packed multi-lane inputs, and both must still
  // be engine- and thread-count-invariant exactly like the FIRs.
  for (const auto& entry : designs::design_registry()) {
    const auto d = designs::make_design(entry.name);
    const auto low = lower(d.graph);
    const auto all = fault::order_for_simulation(
        fault::enumerate_adder_faults(low), low.netlist, d.graph);
    std::vector<fault::Fault> faults;
    const std::size_t stride = std::max<std::size_t>(all.size() / 140, 1);
    for (std::size_t i = 0; i < all.size(); i += stride)
      faults.push_back(all[i]);
    ASSERT_GT(faults.size(), 64u) << entry.name;
    auto gen =
        tpg::make_generator(tpg::GeneratorKind::LfsrD, d.stats().width_in);
    const auto stim = gen->generate_raw(160);
    for (const std::size_t threads :
         {std::size_t{1}, std::size_t{2}, std::size_t{0}}) {
      SCOPED_TRACE(entry.name);
      expect_engines_identical(low.netlist, stim, faults, threads);
    }
  }
}

// Time segments: a final pass at least 32 settle depths long splits
// every batch into segments that each warm up over the settle depth.
// The faults are every stage-1 survivor (so the survivor passes are
// wide enough to need more than 64 lanes, and climb the survivor
// window ladder where they span more than 4 batches) plus a stride
// sample of the rest.
// The stimulus is the ladder's last start, 2048, plus 32 settle
// depths, so whichever window finishes the plan — [128, N), [512, N)
// or [2048, N) — spans at least 32 settle depths and splits into two
// or more segments. IIR4's feedback has no settle depth, so it must
// not split.
void expect_segmented_engines_identical(const Netlist& nl,
                                        const std::vector<fault::Fault>& all,
                                        std::size_t width_in,
                                        const std::string& what) {
  SCOPED_TRACE(what);
  const auto depth = CompiledSchedule(nl).settle_depth();
  const std::size_t vectors =
      2048 + 32 * std::max<std::size_t>(depth.value_or(0), 1);
  auto gen = tpg::make_generator(tpg::GeneratorKind::LfsrD, width_in);
  const auto stim = gen->generate_raw(vectors);

  fault::FaultSimOptions probe;
  const auto weed = fault::simulate_faults(
      nl, std::span(stim).first(128), all, probe);
  std::vector<fault::Fault> faults;
  std::size_t survivors = 0;
  for (std::size_t i = 0; i < all.size(); ++i) {
    survivors += weed.detect_cycle[i] < 0 ? 1 : 0;
    if (weed.detect_cycle[i] < 0 || i % 211 == 0) faults.push_back(all[i]);
  }
  ASSERT_GT(survivors, 63u)
      << "too few stage-1 survivors for a wide survivor pass";

  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{0}}) {
    fault::FaultSimStats st;
    expect_engines_identical(nl, stim, faults, threads, &st);
    if (depth.has_value())
      EXPECT_GT(st.segment_overhead_cycles, 0u) << threads << " threads";
    else
      EXPECT_EQ(st.segment_overhead_cycles, 0u) << threads << " threads";
  }
}

TEST(EngineEquivalence, TimeSegmentsEveryRegisteredDesign) {
  // IIR4 has no carry-save form (carry-save needs a feedback-free
  // datapath).
  const std::set<std::string> carry_save = {"LP", "BP", "HP", "DEC2"};
  for (const auto& entry : designs::design_registry()) {
    const auto d = designs::make_design(entry.name);
    const std::size_t width_in = std::size_t(d.stats().width_in);
    const auto low = lower(d.graph);
    expect_segmented_engines_identical(
        low.netlist,
        fault::order_for_simulation(fault::enumerate_adder_faults(low),
                                    low.netlist, d.graph),
        width_in, entry.name + "/ripple");
    if (carry_save.count(entry.name) != 0) {
      const auto csa = lower_carry_save(d);
      expect_segmented_engines_identical(
          csa.netlist, fault::enumerate_adder_faults(csa), width_in,
          entry.name + "/carry-save");
    }
  }
}

// Every stuck-at fault on every pin of the given cells' five gates, in
// one-fault batches and all at once (one batch at 256 or 512 lanes;
// 64-lane batches hold 63 faults): the compiled
// engine must take each faulty cell out of its ripple-carry run and
// match FullSweep's detect cycles and 24-bit difference words.
void expect_cell_faults_match(const Netlist& nl,
                              const std::vector<NetId>& cell_x1,
                              const std::string& what) {
  SCOPED_TRACE(what);
  std::vector<fault::Fault> faults;
  for (const NetId x1 : cell_x1)
    for (NetId g = x1; g < x1 + 5; ++g)
      for (const PinSite site :
           {PinSite::Output, PinSite::InputA, PinSite::InputB})
        for (const std::uint8_t stuck : {0, 1})
          faults.push_back({g, site, stuck});
  auto gen = tpg::make_generator(tpg::GeneratorKind::LfsrD, 12);
  const auto stim = gen->generate_raw(384);
  fault::FaultSimOptions opt;
  opt.signature.width = 24;
  opt.signature.taps = tpg::default_polynomial(24).low_terms;
  auto run = [&](std::span<const fault::Fault> fs, fault::FaultSimEngine e,
                 std::vector<std::uint32_t>& diff) {
    fault::FaultSimOptions o = opt;
    o.engine = e;
    return fault::simulate_faults(nl, stim, fs, o, diff);
  };
  auto expect_same = [&](std::span<const fault::Fault> fs,
                         const std::string& batch) {
    std::vector<std::uint32_t> ref_diff, cone_diff;
    const auto ref = run(fs, fault::FaultSimEngine::FullSweep, ref_diff);
    const auto cone = run(fs, fault::FaultSimEngine::Compiled, cone_diff);
    EXPECT_EQ(cone.stats.engine, fault::FaultSimEngine::Compiled);
    EXPECT_EQ(ref.detect_cycle, cone.detect_cycle) << batch;
    EXPECT_EQ(ref_diff, cone_diff) << batch;
    return ref.detected;
  };
  std::size_t detected = 0;
  for (std::size_t i = 0; i < faults.size(); ++i)
    detected += expect_same({&faults[i], 1}, "fault " + std::to_string(i));
  EXPECT_EQ(expect_same(faults, "all at once"), detected);
  // Most of these faults are detectable, so the checks compare verdicts
  // that differ from the good machine.
  EXPECT_GT(detected, faults.size() / 2);
}

TEST(EngineEquivalence, FaultsInsideRippleRuns) {
  const auto d = designs::make_design("LP");
  // The first, a middle and the last full cell of one accumulation
  // adder, in carry order: runs end before, restart after, or stop at
  // the faulty cell.
  const auto low = lower(d.graph);
  const CompiledSchedule sched(low.netlist);
  const rtl::NodeId adder =
      d.structural_adders[d.structural_adders.size() / 2];
  std::vector<NetId> chain;
  for (const auto& cell : sched.adder_cells())
    if (low.netlist.origin(cell.x1).node == adder) chain.push_back(cell.x1);
  ASSERT_GE(chain.size(), 3u);
  for (std::size_t i = 0; i + 1 < chain.size(); ++i)
    ASSERT_EQ(sched.adder_cells()[std::size_t(sched.cell_of(chain[i]))].next,
              sched.cell_of(chain[i + 1]))
        << "the adder's cells form one ripple-carry chain";
  expect_cell_faults_match(
      low.netlist, {chain.front(), chain[chain.size() / 2], chain.back()},
      "ripple");

  // One cell of the same adder as a carry-save stage (a run of one
  // cell).
  const auto csa = lower_carry_save(d);
  const CompiledSchedule csa_sched(csa.netlist);
  NetId stage_cell = kNoNet;
  for (const auto& cell : csa_sched.adder_cells())
    if (csa.netlist.origin(cell.x1).node == adder && cell.next < 0) {
      stage_cell = cell.x1;
      break;
    }
  ASSERT_NE(stage_cell, kNoNet);
  expect_cell_faults_match(csa.netlist, {stage_cell}, "carry-save");
}

TEST(EngineEquivalence, CarrySaveLowering) {
  // The carry-save variant doubles the register count — a good stress
  // of cone closure through (sum, carry) register pairs.
  const auto d = rtl::build_fir({0.3, -0.42, 0.11, 0.07}, {}, "csa");
  const auto low = lower_carry_save(d);
  const auto faults = fault::enumerate_adder_faults(low);
  tpg::WhiteUniformSource src(12, 7);
  const auto stim = src.generate_raw(128);
  expect_engines_identical(low.netlist, stim, faults, 1);
  expect_engines_identical(low.netlist, stim, faults, 2);
}

TEST(EngineStats, ReportsWorkDone) {
  const auto low = lowered_fir({0.27, -0.19, 0.13, 0.094}, "stats");
  const auto faults = fault::enumerate_adder_faults(low);
  auto gen = tpg::make_generator(tpg::GeneratorKind::LfsrD, 12);
  const auto stim = gen->generate_raw(200);
  const auto r = fault::simulate_faults(low.netlist, stim, faults);
  const auto& s = r.stats;
  EXPECT_EQ(s.engine, fault::FaultSimEngine::Compiled);
  // The weed-out runs every fault once in (lanes-1)-wide batches; the
  // survivor passes add a workload-dependent number of batches on top.
  ASSERT_GE(s.lane_width, 64u);
  EXPECT_GE(s.batches, (faults.size() + s.lane_width - 2) / (s.lane_width - 1));
  EXPECT_NE(s.simd, common::SimdBackend::Auto);
  EXPECT_GT(s.cycles_simulated, 0u);
  EXPECT_GE(s.cycles_budgeted, s.cycles_simulated);
  EXPECT_GT(s.good_trace_cycles, 0u);
  EXPECT_LT(s.gates_evaluated, s.gates_full_sweep);
  EXPECT_GT(s.mean_cone_fraction(), 0.0);
  EXPECT_LT(s.mean_cone_fraction(), 1.0);
  EXPECT_GT(s.gate_eval_savings(), 0.0);
}

TEST(EngineStats, DeterministicAcrossThreadCounts) {
  const auto low = lowered_fir({0.22, -0.31, 0.085, -0.05, 0.03}, "det");
  const auto faults = fault::enumerate_adder_faults(low);
  auto gen = tpg::make_generator(tpg::GeneratorKind::Lfsr1, 12);
  const auto stim = gen->generate_raw(256);
  fault::FaultSimOptions o1;
  o1.num_threads = 1;
  const auto r1 = fault::simulate_faults(low.netlist, stim, faults, o1);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{0}}) {
    fault::FaultSimOptions on;
    on.num_threads = threads;
    const auto rn = fault::simulate_faults(low.netlist, stim, faults, on);
    EXPECT_EQ(rn.stats.batches, r1.stats.batches);
    EXPECT_EQ(rn.stats.cycles_simulated, r1.stats.cycles_simulated);
    EXPECT_EQ(rn.stats.cycles_budgeted, r1.stats.cycles_budgeted);
    EXPECT_EQ(rn.stats.gates_evaluated, r1.stats.gates_evaluated);
    EXPECT_EQ(rn.stats.gates_full_sweep, r1.stats.gates_full_sweep);
    EXPECT_DOUBLE_EQ(rn.stats.cone_fraction_sum, r1.stats.cone_fraction_sum);
  }
}

} // namespace
} // namespace fdbist::gate
