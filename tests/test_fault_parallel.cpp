// Determinism of the multithreaded fault-simulation engine: any
// num_threads must produce bit-identical results to the sequential
// path, and the serialized progress callback must report a complete,
// strictly increasing sequence regardless of worker interleaving.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "common/simd.hpp"
#include "fault/simulator.hpp"
#include "gate/lower.hpp"
#include "gate/schedule.hpp"
#include "rtl/fir_builder.hpp"
#include "tpg/generators.hpp"

namespace fdbist::fault {
namespace {

struct Fixture {
  rtl::FilterDesign design;
  gate::LoweredDesign low;
  std::vector<Fault> faults;
  std::vector<std::int64_t> stim;
};

// A lowered filter small enough for fast tests but with 8,281 collapsed
// faults: a run over its 256 vectors takes 135 batches at 64 lanes, 34 at
// 256 and 18 at 512, so the threads share many batches at every SIMD
// width.
const Fixture& fixture() {
  static const Fixture f = [] {
    auto d = rtl::build_fir(
        {0.27, -0.19, 0.13, 0.094, -0.071, 0.052, -0.038, 0.024}, {},
        "par8");
    auto low = gate::lower(d.graph);
    auto faults = order_for_simulation(enumerate_adder_faults(low),
                                       low.netlist, d.graph);
    auto gen = tpg::make_generator(tpg::GeneratorKind::LfsrD, 12);
    auto stim = gen->generate_raw(256);
    return Fixture{std::move(d), std::move(low), std::move(faults),
                   std::move(stim)};
  }();
  return f;
}

FaultSimResult run_with(std::size_t threads) {
  FaultSimOptions opt;
  opt.num_threads = threads;
  return simulate_faults(fixture().low.netlist, fixture().stim,
                         fixture().faults, opt);
}

// The same filter over a stimulus long enough that the full-budget pass
// splits every batch into time segments (the 128-vector weed-out stays
// whole).
constexpr std::size_t kSegmentedVectors = 1024;

const std::vector<std::int64_t>& long_stim() {
  static const auto stim = [] {
    auto gen = tpg::make_generator(tpg::GeneratorKind::LfsrD, 12);
    return gen->generate_raw(kSegmentedVectors);
  }();
  return stim;
}

FaultSimResult run_segmented(FaultSimOptions opt) {
  return simulate_faults(fixture().low.netlist, long_stim(),
                         fixture().faults, opt);
}

FaultSimResult run_segmented(std::size_t threads) {
  FaultSimOptions opt;
  opt.num_threads = threads;
  return run_segmented(opt);
}

// Faults still undetected after the weed-out, in the order
// simulate_faults packs them — by (gate, site, stuck): the full-budget
// pass's batches, in batch order.
std::vector<std::size_t> stage1_survivors(const FaultSimResult& r) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < r.detect_cycle.size(); ++i)
    if (r.detect_cycle[i] < 0 || r.detect_cycle[i] >= 128) out.push_back(i);
  const auto& faults = fixture().faults;
  std::stable_sort(out.begin(), out.end(), [&](std::size_t a, std::size_t b) {
    return std::tie(faults[a].gate, faults[a].site, faults[a].stuck) <
           std::tie(faults[b].gate, faults[b].site, faults[b].stuck);
  });
  return out;
}

TEST(FaultParallel, FixtureSpansManyBatches) {
  // More than four full batches at the widest backend (511 faults each).
  const std::size_t widest_batch =
      common::simd_lane_count(common::SimdBackend::Avx512) - 1;
  ASSERT_GT(fixture().faults.size(), 4 * widest_batch)
      << "fixture too small to exercise sharding";
}

TEST(FaultParallel, ThreadCountsProduceIdenticalResults) {
  const auto baseline = run_with(1);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
    const auto r = run_with(threads);
    EXPECT_EQ(r.detected, baseline.detected) << threads << " threads";
    EXPECT_EQ(r.total_faults, baseline.total_faults);
    ASSERT_EQ(r.detect_cycle.size(), baseline.detect_cycle.size());
    for (std::size_t i = 0; i < r.detect_cycle.size(); ++i)
      ASSERT_EQ(r.detect_cycle[i], baseline.detect_cycle[i])
          << "fault " << i << " with " << threads << " threads";
  }
}

TEST(FaultParallel, HardwareConcurrencyMatchesSequential) {
  const auto baseline = run_with(1);
  const auto r = run_with(0); // 0 = one worker per hardware thread
  EXPECT_EQ(r.detect_cycle, baseline.detect_cycle);
  EXPECT_EQ(r.detected, baseline.detected);
}

TEST(FaultParallel, CoverageCurvesIdenticalAcrossThreadCounts) {
  const std::vector<std::size_t> checkpoints = {0, 32, 64, 128, 256};
  const auto c1 = run_with(1).coverage_at(checkpoints);
  const auto c4 = run_with(4).coverage_at(checkpoints);
  ASSERT_EQ(c1.size(), c4.size());
  for (std::size_t i = 0; i < c1.size(); ++i)
    EXPECT_DOUBLE_EQ(c1[i], c4[i]) << "checkpoint " << checkpoints[i];
}

// Golden equivalence on the fixture: the default (compiled, cone
// restricted) engine against the retained full-sweep reference, at every
// thread count the acceptance criteria name. test_gate_schedule.cpp
// covers the paper filters; this keeps the cheap oracle next to the
// other parallel-determinism tests.
TEST(FaultParallel, CompiledEngineMatchesFullSweepReference) {
  FaultSimOptions ref;
  ref.num_threads = 1;
  ref.engine = FaultSimEngine::FullSweep;
  const auto golden = simulate_faults(fixture().low.netlist, fixture().stim,
                                      fixture().faults, ref);
  EXPECT_EQ(golden.stats.engine, FaultSimEngine::FullSweep);
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{0}}) {
    FaultSimOptions opt;
    opt.num_threads = threads;
    opt.engine = FaultSimEngine::Compiled;
    const auto r = simulate_faults(fixture().low.netlist, fixture().stim,
                                   fixture().faults, opt);
    EXPECT_EQ(r.stats.engine, FaultSimEngine::Compiled);
    EXPECT_EQ(r.detected, golden.detected) << threads << " threads";
    ASSERT_EQ(r.detect_cycle.size(), golden.detect_cycle.size());
    for (std::size_t i = 0; i < r.detect_cycle.size(); ++i)
      ASSERT_EQ(r.detect_cycle[i], golden.detect_cycle[i])
          << "fault " << i << " with " << threads << " threads";
    EXPECT_EQ(r.finalized, golden.finalized);
  }
}

// The engine-work counters are a pure function of the workload, so they
// must not wobble with worker interleaving (they feed bench logs and
// BENCH_fault_sim.json, where nondeterminism would read as a perf
// change).
TEST(FaultParallel, EngineStatsDeterministicAcrossThreadCounts) {
  const auto baseline = run_with(1);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
    const auto r = run_with(threads);
    EXPECT_EQ(r.stats.engine, baseline.stats.engine);
    EXPECT_EQ(r.stats.batches, baseline.stats.batches);
    EXPECT_EQ(r.stats.cycles_simulated, baseline.stats.cycles_simulated);
    EXPECT_EQ(r.stats.cycles_budgeted, baseline.stats.cycles_budgeted);
    EXPECT_EQ(r.stats.gates_evaluated, baseline.stats.gates_evaluated);
    EXPECT_EQ(r.stats.gates_full_sweep, baseline.stats.gates_full_sweep);
    EXPECT_DOUBLE_EQ(r.stats.cone_fraction_sum,
                     baseline.stats.cone_fraction_sum);
  }
}

TEST(FaultParallel, ProgressIsMonotoneAndComplete) {
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    std::vector<std::pair<std::size_t, std::size_t>> reports;
    FaultSimOptions opt;
    opt.num_threads = threads;
    // The engine serializes progress calls under a mutex, so plain
    // vector appends are safe even with many workers.
    opt.progress = [&](std::size_t done, std::size_t total) {
      reports.emplace_back(done, total);
    };
    const auto r = simulate_faults(fixture().low.netlist, fixture().stim,
                                   fixture().faults, opt);
    ASSERT_FALSE(reports.empty()) << threads << " threads";
    for (std::size_t i = 0; i < reports.size(); ++i) {
      EXPECT_EQ(reports[i].second, r.total_faults);
      if (i > 0) {
        EXPECT_GT(reports[i].first, reports[i - 1].first)
            << "progress must be strictly increasing (" << threads
            << " threads)";
      }
    }
    EXPECT_EQ(reports.back().first, r.total_faults)
        << "final progress report must cover every fault (" << threads
        << " threads)";
  }
}

// Regression: an exception thrown from the progress callback must
// cancel outstanding batches, join every worker, and propagate to the
// caller — not hang the pool or leak worker state (the ASan job keeps
// this honest). Thrown at several points in the campaign so both the
// weed-out pass and the survivor pass are exercised.
TEST(FaultParallel, ProgressExceptionJoinsWorkersAndPropagates) {
  struct ProgressBomb : std::runtime_error {
    using std::runtime_error::runtime_error;
  };
  // Size the fuses from a clean run's callback count so the bomb goes
  // off early, midway, and on the final report.
  std::size_t total_calls = 0;
  {
    FaultSimOptions opt;
    opt.num_threads = 1;
    opt.progress = [&](std::size_t, std::size_t) { ++total_calls; };
    simulate_faults(fixture().low.netlist, fixture().stim, fixture().faults,
                    opt);
  }
  ASSERT_GT(total_calls, 2u) << "fixture too small to stage a mid-run throw";

  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    for (const std::size_t fuse :
         {std::size_t{1}, total_calls / 2, total_calls}) {
      FaultSimOptions opt;
      opt.num_threads = threads;
      std::atomic<std::size_t> calls{0};
      opt.progress = [&](std::size_t, std::size_t) {
        if (++calls >= fuse) throw ProgressBomb("boom");
      };
      EXPECT_THROW(simulate_faults(fixture().low.netlist, fixture().stim,
                                   fixture().faults, opt),
                   ProgressBomb)
          << threads << " threads, fuse " << fuse;
    }
  }
}

TEST(FaultParallel, CancelledRunReturnsValidPartialResult) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    common::CancelToken token;
    FaultSimOptions opt;
    opt.num_threads = threads;
    opt.cancel = &token;
    std::size_t calls = 0;
    // Cancel from inside the campaign, as a deadline watcher would.
    opt.progress = [&](std::size_t, std::size_t) {
      if (++calls == 2) token.cancel();
    };
    const auto r = simulate_faults(fixture().low.netlist, fixture().stim,
                                   fixture().faults, opt);
    EXPECT_FALSE(r.complete) << threads << " threads";
    EXPECT_LT(r.finalized_count(), r.total_faults);
    // Every verdict present in the partial result matches the oracle of
    // an uninterrupted run: cancellation degrades coverage, never
    // correctness.
    const auto full = run_with(1);
    ASSERT_EQ(r.detect_cycle.size(), full.detect_cycle.size());
    std::size_t detected = 0;
    for (std::size_t i = 0; i < r.detect_cycle.size(); ++i) {
      if (r.finalized[i]) {
        EXPECT_EQ(r.detect_cycle[i], full.detect_cycle[i]) << "fault " << i;
      }
      if (r.detect_cycle[i] >= 0) ++detected;
    }
    EXPECT_EQ(r.detected, detected);
  }
}

TEST(FaultParallel, SegmentedFixtureSplitsOnlyTheFullBudgetPass) {
  const auto depth =
      gate::CompiledSchedule(fixture().low.netlist).settle_depth();
  ASSERT_TRUE(depth.has_value());
  EXPECT_GE(kSegmentedVectors / (16 * *depth), 2u);
  EXPECT_LT(128 / (16 * *depth), 2u);
  const auto r = run_segmented(1);
  EXPECT_GT(r.stats.segment_overhead_cycles, 0u);
  EXPECT_GT(stage1_survivors(r).size(), 63u)
      << "the full-budget pass should need more than one 64-lane batch";
}

// Verdicts and every work counter of a segmented run are a function of
// the workload alone: the same at every thread count, and the same
// cycles as the FullSweep reference, which never splits a batch.
TEST(FaultParallel, SegmentedRunsIdenticalAcrossThreadCounts) {
  FaultSimOptions ref;
  ref.num_threads = 1;
  ref.engine = FaultSimEngine::FullSweep;
  const auto golden = run_segmented(ref);
  EXPECT_EQ(golden.stats.segment_overhead_cycles, 0u);
  const auto baseline = run_segmented(1);
  EXPECT_EQ(baseline.detect_cycle, golden.detect_cycle);
  EXPECT_EQ(baseline.stats.cycles_simulated, golden.stats.cycles_simulated);
  for (const std::size_t threads :
       {std::size_t{2}, std::size_t{4}, std::size_t{0}}) {
    const auto r = run_segmented(threads);
    EXPECT_EQ(r.detect_cycle, baseline.detect_cycle) << threads << " threads";
    EXPECT_EQ(r.finalized, baseline.finalized);
    EXPECT_EQ(r.stats.batches, baseline.stats.batches);
    EXPECT_EQ(r.stats.cycles_simulated, baseline.stats.cycles_simulated);
    EXPECT_EQ(r.stats.cycles_budgeted, baseline.stats.cycles_budgeted);
    EXPECT_EQ(r.stats.segment_overhead_cycles,
              baseline.stats.segment_overhead_cycles);
    EXPECT_EQ(r.stats.gates_evaluated, baseline.stats.gates_evaluated);
    EXPECT_EQ(r.stats.gates_full_sweep, baseline.stats.gates_full_sweep);
    EXPECT_DOUBLE_EQ(r.stats.cone_fraction_sum,
                     baseline.stats.cone_fraction_sum);
  }
}

TEST(FaultParallel, SegmentedProgressIsMonotoneAndComplete) {
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    std::vector<std::size_t> reports;
    FaultSimOptions opt;
    opt.num_threads = threads;
    opt.progress = [&](std::size_t done, std::size_t total) {
      EXPECT_EQ(total, fixture().faults.size());
      reports.push_back(done);
    };
    run_segmented(opt);
    ASSERT_FALSE(reports.empty()) << threads << " threads";
    for (std::size_t i = 1; i < reports.size(); ++i)
      EXPECT_GT(reports[i], reports[i - 1]) << threads << " threads";
    EXPECT_EQ(reports.back(), fixture().faults.size())
        << threads << " threads";
  }
}

// One worker on 64-lane words runs the full-budget pass segment-major:
// every batch's first segment, then every batch's second, and so on, so
// the first report of that pass comes when batch 0's last segment ends.
// Cancelling there leaves every later batch with all segments but its
// last run — and those batches must stay wholly unfinalized, with no
// detect cycle taken from the segments that did run.
TEST(FaultParallel, CancelledSegmentedPassLeavesItsBatchesUnfinalized) {
  const auto full = run_segmented(1);
  const auto survivors = stage1_survivors(full);
  ASSERT_GT(survivors.size(), 63u) << "need two full-budget batches";
  const std::size_t weeded = full.total_faults - survivors.size();

  common::CancelToken token;
  FaultSimOptions opt;
  opt.num_threads = 1;
  opt.simd = common::SimdBackend::Scalar;
  opt.cancel = &token;
  opt.progress = [&](std::size_t done, std::size_t) {
    if (done > weeded) token.cancel();
  };
  const auto r = run_segmented(opt);
  EXPECT_FALSE(r.complete);
  EXPECT_EQ(r.finalized_count(), weeded + 63);
  std::vector<std::uint8_t> in_tail(full.total_faults, 0);
  for (const std::size_t i : survivors) in_tail[i] = 1;
  for (std::size_t i = 0; i < full.total_faults; ++i) {
    if (!in_tail[i]) {
      EXPECT_TRUE(r.finalized[i]) << "fault " << i;
      EXPECT_EQ(r.detect_cycle[i], full.detect_cycle[i]) << "fault " << i;
    }
  }
  for (std::size_t p = 0; p < survivors.size(); ++p) {
    const std::size_t i = survivors[p];
    if (p < 63) {
      EXPECT_TRUE(r.finalized[i]) << "fault " << i;
      EXPECT_EQ(r.detect_cycle[i], full.detect_cycle[i]) << "fault " << i;
    } else {
      EXPECT_FALSE(r.finalized[i]) << "fault " << i;
      EXPECT_EQ(r.detect_cycle[i], -1) << "fault " << i;
    }
  }
}

TEST(FaultParallel, PreCancelledTokenYieldsEmptyResultWithoutHanging) {
  common::CancelToken token;
  token.cancel();
  FaultSimOptions opt;
  opt.num_threads = 4;
  opt.cancel = &token;
  const auto r = simulate_faults(fixture().low.netlist, fixture().stim,
                                 fixture().faults, opt);
  EXPECT_FALSE(r.complete);
  EXPECT_EQ(r.finalized_count(), 0u);
  EXPECT_EQ(r.detected, 0u);
  EXPECT_EQ(r.total_faults, fixture().faults.size());
}

} // namespace
} // namespace fdbist::fault
