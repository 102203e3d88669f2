// Survivor windows (fault/simulator.cpp): after the 128-vector
// weed-out, a word-compare run on a netlist with a settle depth climbs
// a ladder of windows [b, 4b), each entered from reset D cycles early
// and run only over the faults still undetected. On a paper cell that
// must stay exact: the same verdicts as the FullSweep reference and as
// the one-fault micro-oracle, and the same work at every thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "designs/registry.hpp"
#include "fault/serial.hpp"
#include "fault/simulator.hpp"
#include "gate/lower.hpp"
#include "gate/schedule.hpp"
#include "tpg/generators.hpp"

namespace fdbist::fault {
namespace {

// The batches of a pass of n faults at a run's lane width: a pass that
// fits one 64-lane batch runs on 64 lanes.
std::size_t batches_of(std::size_t n, std::size_t lane_width) {
  const std::size_t fpb = n <= 63 ? 63 : lane_width - 1;
  return (n + fpb - 1) / fpb;
}

struct PlannedWindow {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t faults = 0; ///< the pass's size
};

// The word-compare pass plan of simulate_faults, replayed from a run's
// verdicts: [0, 128) over every fault; then, while the survivors span
// more than 4 wide batches (and 4b < N), the window [b, 4b) over the
// survivors; then [b, N).
std::vector<PlannedWindow> replay_plan(const FaultSimResult& r) {
  const std::size_t n = r.vectors;
  const std::size_t lanes = r.stats.lane_width;
  std::vector<PlannedWindow> plan;
  PlannedWindow w{0, std::min<std::size_t>(128, n), r.total_faults};
  while (true) {
    plan.push_back(w);
    std::size_t survivors = 0;
    for (const std::int32_t c : r.detect_cycle)
      survivors += c < 0 || std::size_t(c) >= w.end ? 1 : 0;
    if (w.end == n || survivors == 0) break;
    const bool climb = w.end * 4 < n && survivors > 4 * (lanes - 1);
    w = {w.end, climb ? w.end * 4 : n, survivors};
  }
  return plan;
}

// LP x Ramp climbs the window ladder: after [0, 128) the ramp has barely
// left zero, and thousands of survivors fall out window by window. Both
// engines and every thread count follow the one plan, so they agree on
// verdicts and on every work counter; what they cannot cross-check is
// the plan itself, so a sample of each window's verdicts is checked
// against the one-fault micro-oracle, which knows nothing of batches
// or windows.
TEST(SurvivorWindows, LpRampMatchesFullSweepAndTheOracle) {
  const auto design = designs::make_design("LP");
  const auto low = gate::lower(design.graph);
  const auto faults =
      order_for_simulation(enumerate_adder_faults(low), low.netlist, design);
  auto gen = tpg::make_generator(tpg::GeneratorKind::Ramp,
                                 design.stats().width_in);
  const auto stim = gen->generate_raw(2048);
  const auto settle = gate::CompiledSchedule(low.netlist).settle_depth();
  ASSERT_TRUE(settle.has_value());

  FaultSimOptions ref_opt;
  ref_opt.engine = FaultSimEngine::FullSweep;
  const auto ref = simulate_faults(low.netlist, stim, faults, ref_opt);
  EXPECT_EQ(ref.stats.segment_overhead_cycles, 0u);
  std::optional<FaultSimResult> first;
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{0}}) {
    FaultSimOptions opt;
    opt.engine = FaultSimEngine::Compiled;
    opt.num_threads = threads;
    auto r = simulate_faults(low.netlist, stim, faults, opt);
    ASSERT_EQ(r.detect_cycle, ref.detect_cycle) << threads << " threads";
    EXPECT_EQ(r.finalized, ref.finalized);
    EXPECT_EQ(r.stats.batches, ref.stats.batches);
    EXPECT_EQ(r.stats.cycles_simulated, ref.stats.cycles_simulated);
    EXPECT_EQ(r.stats.cycles_budgeted, ref.stats.cycles_budgeted);
    EXPECT_LT(r.stats.gates_evaluated, ref.stats.gates_evaluated);
    if (!first) {
      first = std::move(r);
      continue;
    }
    const FaultSimStats& a = first->stats;
    const FaultSimStats& b = r.stats;
    EXPECT_EQ(b.segment_overhead_cycles, a.segment_overhead_cycles);
    EXPECT_EQ(b.gates_evaluated, a.gates_evaluated);
    EXPECT_EQ(b.gates_full_sweep, a.gates_full_sweep);
    EXPECT_DOUBLE_EQ(b.cone_fraction_sum, a.cone_fraction_sum);
  }

  // The run followed the replayed plan, window by window.
  const auto plan = replay_plan(ref);
  ASSERT_GE(plan.size(), 3u) << "the tail should climb the window ladder";
  std::size_t batches = 0;
  std::size_t budgeted = 0;
  for (const PlannedWindow& w : plan) {
    const std::size_t n = batches_of(w.faults, ref.stats.lane_width);
    batches += n;
    budgeted += n * (w.end - (w.begin - std::min(w.begin, *settle)));
  }
  EXPECT_EQ(ref.stats.batches, batches);
  EXPECT_EQ(ref.stats.cycles_budgeted, budgeted);

  // Each window's earliest and latest detection, a stride sample of the
  // rest, and in the last window a sample of the undetected faults.
  for (const PlannedWindow& w : plan) {
    SCOPED_TRACE("window [" + std::to_string(w.begin) + ", " +
                 std::to_string(w.end) + ")");
    std::vector<std::size_t> found;
    std::vector<std::size_t> missed;
    for (std::size_t i = 0; i < faults.size(); ++i) {
      const std::int32_t c = ref.detect_cycle[i];
      if (c >= 0 && std::size_t(c) >= w.begin && std::size_t(c) < w.end)
        found.push_back(i);
      else if (c < 0 && w.end == stim.size())
        missed.push_back(i);
    }
    ASSERT_FALSE(found.empty());
    const auto by_cycle = [&](std::size_t a, std::size_t b) {
      return ref.detect_cycle[a] < ref.detect_cycle[b];
    };
    std::vector<std::size_t> sample = {
        *std::min_element(found.begin(), found.end(), by_cycle),
        *std::max_element(found.begin(), found.end(), by_cycle)};
    for (std::size_t k = 0; k < found.size(); k += found.size() / 4 + 1)
      sample.push_back(found[k]);
    for (std::size_t k = 0; k < missed.size(); k += missed.size() / 2 + 1)
      sample.push_back(missed[k]);
    for (const std::size_t i : sample)
      EXPECT_EQ(detect_cycle_of(low.netlist, stim, faults[i]),
                ref.detect_cycle[i])
          << "fault " << i;
  }
}

} // namespace
} // namespace fdbist::fault
