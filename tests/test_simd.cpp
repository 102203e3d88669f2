// The wide-word abstraction (common/simd.hpp) and the SIMD batch-kernel
// dispatch (fault/kernel.hpp): lane accessors and bitwise algebra at
// every width, backend naming/parsing, lane-limit enforcement in the
// gate simulator, and — the property everything else rests on —
// bit-identical fault verdicts across every backend this build can run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "common/simd.hpp"
#include "designs/registry.hpp"
#include "fault/kernel.hpp"
#include "fault/simulator.hpp"
#include "gate/lower.hpp"
#include "gate/sim.hpp"
#include "rtl/fir_builder.hpp"
#include "tpg/generators.hpp"
#include "tpg/lfsr.hpp"

namespace fdbist {
namespace {

using common::SimdBackend;

// NOTE: this TU is compiled without -mavx2/-mavx512f, so the wide
// instantiations here exercise the portable limb loops — which is the
// point: they define the semantics the intrinsic paths must match, and
// the cross-backend verdict test at the bottom closes the loop through
// the real per-ISA kernels.
template <typename W> class SimdWordTest : public ::testing::Test {};

using Widths = ::testing::Types<common::simd_word<1>, common::simd_word<4>,
                                common::simd_word<8>>;
TYPED_TEST_SUITE(SimdWordTest, Widths);

TYPED_TEST(SimdWordTest, ZeroOnesFill) {
  using W = TypeParam;
  EXPECT_TRUE(W::zero().none());
  EXPECT_FALSE(W::zero().any());
  EXPECT_EQ(W::zero().popcount(), 0);
  EXPECT_EQ(W::ones().popcount(), W::kLanes);
  EXPECT_TRUE(W::ones().any());
  EXPECT_EQ(W::fill(false), W::zero());
  EXPECT_EQ(W::fill(true), W::ones());
  EXPECT_EQ(W::zero().highest_lane(), -1);
  EXPECT_EQ(W::ones().highest_lane(), W::kLanes - 1);
}

TYPED_TEST(SimdWordTest, LaneInsertExtract) {
  using W = TypeParam;
  // lane_bit, set_lane and lane agree at every position, including the
  // limb boundaries that a single-word implementation never crosses.
  for (int l = 0; l < W::kLanes; ++l) {
    const W b = W::lane_bit(l);
    EXPECT_EQ(b.popcount(), 1);
    EXPECT_EQ(b.highest_lane(), l);
    EXPECT_TRUE(b.lane(l));
    if (l > 0) {
      EXPECT_FALSE(b.lane(l - 1));
    }

    W m = W::zero();
    m.set_lane(l, true);
    EXPECT_EQ(m, b);
    m.set_lane(l, false);
    EXPECT_EQ(m, W::zero());
  }
}

TYPED_TEST(SimdWordTest, FromWord0) {
  using W = TypeParam;
  const W x = W::from_word0(0x8000000000000001ull);
  EXPECT_EQ(x.word(0), 0x8000000000000001ull);
  for (int i = 1; i < W::kWords; ++i) EXPECT_EQ(x.word(i), 0u);
  EXPECT_EQ(x.popcount(), 2);
  EXPECT_EQ(x.highest_lane(), 63);
}

TYPED_TEST(SimdWordTest, BitwiseAlgebra) {
  using W = TypeParam;
  // A pseudo-random pattern with bits in every limb.
  W a = W::zero(), b = W::zero();
  std::uint64_t s = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < W::kWords; ++i) {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    a.w[i] = s;
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    b.w[i] = s;
  }
  EXPECT_EQ(~~a, a);
  EXPECT_EQ((a & b) | (a & ~b), a);
  EXPECT_EQ(a ^ a, W::zero());
  EXPECT_EQ(a ^ W::zero(), a);
  EXPECT_EQ(a & W::ones(), a);
  EXPECT_EQ(a | W::zero(), a);
  EXPECT_EQ(~(a & b), ~a | ~b);
  EXPECT_EQ(a.popcount() + (~a).popcount(), W::kLanes);
  W c = a;
  c &= b;
  EXPECT_EQ(c, a & b);
  c = a;
  c |= b;
  EXPECT_EQ(c, a | b);
  c = a;
  c ^= b;
  EXPECT_EQ(c, a ^ b);
}

TEST(SimdBackendNames, RoundTrip) {
  for (const SimdBackend b : {SimdBackend::Auto, SimdBackend::Scalar,
                              SimdBackend::Avx2, SimdBackend::Avx512}) {
    SimdBackend parsed;
    ASSERT_TRUE(common::parse_simd_backend(common::simd_backend_name(b),
                                           parsed));
    EXPECT_EQ(parsed, b);
  }
  SimdBackend out;
  EXPECT_FALSE(common::parse_simd_backend("sse9", out));
  EXPECT_FALSE(common::parse_simd_backend("", out));
  EXPECT_EQ(common::simd_lane_count(SimdBackend::Scalar), 64u);
  EXPECT_EQ(common::simd_lane_count(SimdBackend::Avx2), 256u);
  EXPECT_EQ(common::simd_lane_count(SimdBackend::Avx512), 512u);
  EXPECT_EQ(common::simd_lane_count(SimdBackend::Auto), 0u);
}

TEST(KernelDispatch, ScalarAlwaysRunnableAndResolutionIsConcrete) {
  EXPECT_TRUE(fault::detail::kernel_available(SimdBackend::Scalar));
  EXPECT_TRUE(common::cpu_supports(SimdBackend::Scalar));
  for (const SimdBackend req : {SimdBackend::Auto, SimdBackend::Scalar,
                                SimdBackend::Avx2, SimdBackend::Avx512}) {
    const SimdBackend got = fault::detail::resolve_simd_backend(req);
    EXPECT_NE(got, SimdBackend::Auto);
    EXPECT_TRUE(fault::detail::kernel_available(got));
    EXPECT_TRUE(common::cpu_supports(got));
    const auto& k = fault::detail::batch_kernel(got);
    EXPECT_EQ(k.backend(), got);
    EXPECT_EQ(k.lanes(), common::simd_lane_count(got));
    EXPECT_EQ(k.faults_per_batch(), k.lanes() - 1);
  }
  // An explicit scalar request is never widened.
  EXPECT_EQ(fault::detail::resolve_simd_backend(SimdBackend::Scalar),
            SimdBackend::Scalar);
}

gate::LoweredDesign lowered_fir(const std::vector<double>& coefs,
                                const char* name) {
  return gate::lower(rtl::build_fir(coefs, {}, name).graph);
}

TEST(LaneLimit, AddFaultRejectsMasksBeyondActiveLanes) {
  const auto low = lowered_fir({0.3, -0.42, 0.11}, "lanes");
  gate::WordSim sim(low.netlist);
  // Find a logic gate to host the fault.
  gate::NetId g = gate::kNoNet;
  for (std::size_t i = 0; i < low.netlist.size(); ++i)
    if (low.netlist.gate(gate::NetId(i)).op == gate::GateOp::And) {
      g = gate::NetId(i);
      break;
    }
  ASSERT_NE(g, gate::kNoNet);

  EXPECT_EQ(sim.active_lanes(), 64u);
  sim.limit_lanes(5); // lanes 0..4 active
  EXPECT_EQ(sim.active_lanes(), 5u);
  sim.add_fault(g, gate::PinSite::Output, 1, std::uint64_t{1} << 4);
  EXPECT_THROW(
      sim.add_fault(g, gate::PinSite::Output, 0, std::uint64_t{1} << 5),
      precondition_error);
  // The limit cannot move while faults occupy lanes.
  EXPECT_THROW(sim.limit_lanes(64), precondition_error);
  sim.clear_faults();
  sim.limit_lanes(64);
  sim.add_fault(g, gate::PinSite::Output, 0, std::uint64_t{1} << 63);

  EXPECT_THROW(sim.limit_lanes(0), precondition_error);
  EXPECT_THROW(sim.limit_lanes(65), precondition_error);
}

// Faults the engine carries past the 128-vector weed-out: those it left
// undetected.
std::size_t full_budget_faults(const fault::FaultSimResult& r) {
  return std::size_t(std::count_if(
      r.detect_cycle.begin(), r.detect_cycle.end(),
      [](std::int32_t c) { return c < 0 || c >= 128; }));
}

// The tentpole property: verdicts are a pure function of (netlist,
// stimulus, fault) — the lane width a batch happens to run at never
// shows through. Every backend this build + CPU can run must agree
// with the scalar kernel fault-for-fault, at several thread counts.
TEST(CrossBackend, VerdictsBitIdentical) {
  const auto low =
      lowered_fir({0.22, -0.31, 0.085, -0.05, 0.03, 0.017}, "xbackend");
  const auto faults = fault::enumerate_adder_faults(low);
  ASSERT_GT(faults.size(), 128u); // spans several 64-lane batches
  auto gen = tpg::make_generator(tpg::GeneratorKind::LfsrD, 12);
  const auto stim = gen->generate_raw(192);

  fault::FaultSimOptions base;
  base.num_threads = 1;
  base.simd = SimdBackend::Scalar;
  const auto ref = fault::simulate_faults(low.netlist, stim, faults, base);
  EXPECT_EQ(ref.stats.lane_width, 64u);
  EXPECT_EQ(ref.stats.simd, SimdBackend::Scalar);
  // The full-budget pass must need more than one 64-lane batch, or
  // every backend would run it on the 64-lane kernel.
  ASSERT_GT(full_budget_faults(ref), 63u);

  for (const SimdBackend b :
       {SimdBackend::Avx2, SimdBackend::Avx512, SimdBackend::Auto}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                      std::size_t{0}}) {
      fault::FaultSimOptions opt;
      opt.num_threads = threads;
      opt.simd = b;
      const auto r = fault::simulate_faults(low.netlist, stim, faults, opt);
      EXPECT_EQ(r.detect_cycle, ref.detect_cycle)
          << "backend " << common::simd_backend_name(b) << " threads "
          << threads;
      EXPECT_EQ(r.detected, ref.detected);
      EXPECT_EQ(r.stats.simd, fault::detail::resolve_simd_backend(b));
      EXPECT_EQ(r.stats.lane_width,
                common::simd_lane_count(r.stats.simd));
    }
  }

  // FullSweep at a forced width agrees too (the engines share lanes).
  fault::FaultSimOptions fs;
  fs.num_threads = 1;
  fs.engine = fault::FaultSimEngine::FullSweep;
  const auto full = fault::simulate_faults(low.netlist, stim, faults, fs);
  EXPECT_EQ(full.detect_cycle, ref.detect_cycle);
}

// A full-budget pass of at most 63 faults runs on the 64-lane kernel
// whatever the backend. Its verdicts must match every backend's run
// and what each wide kernel computes for that same batch, driven
// directly on both engines.
TEST(CrossBackend, SmallFinalPassMatchesTheWideKernels) {
  const auto low =
      lowered_fir({0.22, -0.31, 0.085, -0.05, 0.03, 0.017}, "xbackend");
  const auto all = fault::enumerate_adder_faults(low);
  auto gen = tpg::make_generator(tpg::GeneratorKind::LfsrD, 12);
  const auto stim = gen->generate_raw(192);

  // 40 faults the weed-out leaves and 40 it detects.
  fault::FaultSimOptions base;
  base.num_threads = 1;
  base.simd = SimdBackend::Scalar;
  const auto probe = fault::simulate_faults(low.netlist, stim, all, base);
  std::vector<fault::Fault> faults;
  std::size_t hard = 0, easy = 0;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const std::int32_t c = probe.detect_cycle[i];
    std::size_t& taken = c < 0 || c >= 128 ? hard : easy;
    if (taken < 40) {
      faults.push_back(all[i]);
      ++taken;
    }
  }
  ASSERT_EQ(easy, 40u);
  ASSERT_GT(hard, 0u);
  const auto ref = fault::simulate_faults(low.netlist, stim, faults, base);
  ASSERT_EQ(full_budget_faults(ref), hard);

  for (const SimdBackend b :
       {SimdBackend::Avx2, SimdBackend::Avx512, SimdBackend::Auto}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                      std::size_t{0}}) {
      fault::FaultSimOptions opt;
      opt.num_threads = threads;
      opt.simd = b;
      const auto r = fault::simulate_faults(low.netlist, stim, faults, opt);
      EXPECT_EQ(r.detect_cycle, ref.detect_cycle)
          << "backend " << common::simd_backend_name(b) << " threads "
          << threads;
    }
  }

  std::vector<std::size_t> batch;
  for (std::size_t i = 0; i < faults.size(); ++i)
    if (ref.detect_cycle[i] < 0 || ref.detect_cycle[i] >= 128)
      batch.push_back(i);
  const gate::CompiledSchedule sched(low.netlist);
  const auto trace = gate::record_good_trace(sched, stim, stim.size());
  for (const SimdBackend b : {SimdBackend::Avx2, SimdBackend::Avx512}) {
    if (fault::detail::resolve_simd_backend(b) != b) continue; // not here
    const auto worker = fault::detail::batch_kernel(b).make_worker(sched);
    for (const gate::GoodTrace* tr : {&trace, (const gate::GoodTrace*)nullptr}) {
      std::vector<std::int32_t> detect(batch.size());
      worker->run_batch(faults, stim, batch, {0, 0, stim.size()}, tr,
                        detect.data(), {}, nullptr);
      for (std::size_t m = 0; m < batch.size(); ++m)
        EXPECT_EQ(detect[m], ref.detect_cycle[batch[m]])
            << common::simd_backend_name(b)
            << (tr != nullptr ? " compiled" : " full sweep") << " fault "
            << batch[m];
    }
  }
}

// The same purity claim for every registered design family, with
// signature compaction on: word verdicts AND per-fault signature
// verdicts must survive any (backend, thread count) combination — the
// difference MISR is bit-sliced per lane, so a batch-geometry leak
// would show up here first.
TEST(CrossBackend, AllFamiliesSignatureVerdictsBitIdentical) {
  for (const auto& entry : designs::design_registry()) {
    const auto d = designs::make_design(entry.name);
    const auto low = gate::lower(d.graph);
    const auto all = fault::enumerate_adder_faults(low);
    std::vector<fault::Fault> faults;
    const std::size_t stride = std::max<std::size_t>(all.size() / 150, 1);
    for (std::size_t i = 0; i < all.size(); i += stride)
      faults.push_back(all[i]);
    ASSERT_GT(faults.size(), 64u) << entry.name;
    auto gen =
        tpg::make_generator(tpg::GeneratorKind::LfsrD, d.stats().width_in);
    const auto stim = gen->generate_raw(128);

    fault::FaultSimOptions base;
    base.num_threads = 1;
    base.simd = SimdBackend::Scalar;
    base.signature.width = 12;
    base.signature.taps = tpg::default_polynomial(12).low_terms;
    const auto ref = fault::simulate_faults(low.netlist, stim, faults, base);
    ASSERT_EQ(ref.signature_detect.size(), faults.size()) << entry.name;

    for (const SimdBackend b :
         {SimdBackend::Avx2, SimdBackend::Avx512, SimdBackend::Auto}) {
      for (const std::size_t threads : {std::size_t{2}, std::size_t{0}}) {
        fault::FaultSimOptions opt = base;
        opt.num_threads = threads;
        opt.simd = b;
        const auto r = fault::simulate_faults(low.netlist, stim, faults, opt);
        EXPECT_EQ(r.detect_cycle, ref.detect_cycle)
            << entry.name << " backend " << common::simd_backend_name(b)
            << " threads " << threads;
        EXPECT_EQ(r.signature_detect, ref.signature_detect)
            << entry.name << " backend " << common::simd_backend_name(b)
            << " threads " << threads;
      }
    }
  }
}

} // namespace
} // namespace fdbist
