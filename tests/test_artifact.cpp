// Compiled artifacts: a run off a prebuilt artifact must be
// bit-identical to scratch compilation and do no preparation of its
// own, any slice of the universe may reuse it, an artifact built for
// another netlist or stimulus must be refused, and a campaign must
// prepare once — one compile and one trace for all its slices, none
// when every slice comes back from the checkpoint.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "fault/campaign.hpp"
#include "fault/checkpoint.hpp"
#include "fault/schedule_cache.hpp"
#include "gate/lower.hpp"
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

const Fixture& fixture() {
  static const Fixture f = [] {
    auto d = rtl::build_fir(
        {0.27, -0.19, 0.13, 0.094, -0.071, 0.052, -0.038, 0.024}, {},
        "art8");
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

/// A structurally different netlist and stimulus for the mismatch test.
const Fixture& other_fixture() {
  static const Fixture f = [] {
    auto d = rtl::build_fir({0.31, -0.22, 0.11, 0.05}, {}, "art4");
    auto low = gate::lower(d.graph);
    auto faults = order_for_simulation(enumerate_adder_faults(low),
                                       low.netlist, d.graph);
    auto gen = tpg::make_generator(tpg::GeneratorKind::Lfsr1, 12);
    auto stim = gen->generate_raw(256);
    return Fixture{std::move(d), std::move(low), std::move(faults),
                   std::move(stim)};
  }();
  return f;
}

FaultSimResult scratch_result(const Fixture& f) {
  FaultSimOptions opt;
  opt.num_threads = 1;
  opt.engine = FaultSimEngine::Compiled;
  return simulate_faults(f.low.netlist, f.stim, f.faults, opt);
}

FaultSimResult artifact_result(
    const Fixture& f, std::shared_ptr<const CompiledArtifact> art) {
  FaultSimOptions opt;
  opt.num_threads = 1;
  opt.engine = FaultSimEngine::Compiled;
  opt.artifact = std::move(art);
  return simulate_faults(f.low.netlist, f.stim, f.faults, opt);
}

// ---------------------------------------------------------------------------
// Runs off a prebuilt artifact.

TEST(ArtifactFormat, RoundTripBitIdentical) {
  const auto& f = fixture();
  const auto art = build_artifact(f.low.netlist, f.stim);
  ASSERT_NE(art, nullptr);
  EXPECT_EQ(art->key, make_artifact_key(f.low.netlist, f.stim));
  EXPECT_EQ(fingerprint_netlist(art->netlist),
            fingerprint_netlist(f.low.netlist));

  const auto scratch = scratch_result(f);
  const auto cached = artifact_result(f, art);
  EXPECT_EQ(cached.detect_cycle, scratch.detect_cycle);
  EXPECT_EQ(cached.detected, scratch.detected);
  // The artifact run must do zero preparation work of its own.
  EXPECT_EQ(cached.stats.schedule_compilations, 0u);
  EXPECT_EQ(cached.stats.good_trace_cycles, 0u);
}

TEST(ArtifactFormat, SliceSubsetBitIdentical) {
  // Any contiguous slice of the universe may reuse the cell's one
  // artifact: nothing in it depends on the faults a run simulates.
  const auto& f = fixture();
  const auto art = build_artifact(f.low.netlist, f.stim);
  const std::size_t half = f.faults.size() / 2;
  FaultSimOptions opt;
  opt.num_threads = 1;
  opt.engine = FaultSimEngine::Compiled;
  const auto whole = simulate_faults(f.low.netlist, f.stim, f.faults, opt);
  opt.artifact = art;
  const auto lo = simulate_faults(
      f.low.netlist, f.stim,
      std::span<const Fault>(f.faults.data(), half), opt);
  const auto hi = simulate_faults(
      f.low.netlist, f.stim,
      std::span<const Fault>(f.faults.data() + half, f.faults.size() - half),
      opt);
  ASSERT_EQ(lo.detect_cycle.size() + hi.detect_cycle.size(),
            whole.detect_cycle.size());
  for (std::size_t i = 0; i < half; ++i)
    EXPECT_EQ(lo.detect_cycle[i], whole.detect_cycle[i]) << i;
  for (std::size_t i = half; i < f.faults.size(); ++i)
    EXPECT_EQ(hi.detect_cycle[i - half], whole.detect_cycle[i]) << i;
}

TEST(ArtifactFormat, MismatchedArtifactIsRefused) {
  // simulate_faults' fingerprint checks are the only guard on a
  // caller-supplied artifact: one built for another netlist or another
  // stimulus is API misuse, refused before any batch runs.
  const auto& f = fixture();
  const auto& g = other_fixture();
  auto refusal = [&](std::shared_ptr<const CompiledArtifact> art) {
    try {
      (void)artifact_result(f, std::move(art));
    } catch (const precondition_error& e) {
      return std::string(e.what());
    }
    return std::string("accepted");
  };
  EXPECT_NE(refusal(build_artifact(g.low.netlist, f.stim))
                .find("artifact was built for a different netlist"),
            std::string::npos);
  EXPECT_NE(refusal(build_artifact(f.low.netlist, g.stim))
                .find("artifact was built for a different stimulus"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Campaigns prepare once.

class ArtifactCache : public ::testing::Test {
protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("fdbist_artifact_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// About 10 slices over the fixture's universe, one thread.
  static CampaignOptions ten_slices() {
    CampaignOptions opt;
    opt.num_threads = 1;
    opt.checkpoint_every = (fixture().faults.size() + 9) / 10;
    return opt;
  }
  static std::size_t slices(const CampaignOptions& opt) {
    return (fixture().faults.size() + opt.checkpoint_every - 1) /
           opt.checkpoint_every;
  }

  std::filesystem::path dir_;
};

TEST_F(ArtifactCache, CampaignCompilesOncePerDesign) {
  // No caller's artifact: the campaign's one simulate_faults call
  // compiles and records its trace once for every slice.
  const auto& f = fixture();
  const CampaignOptions opt = ten_slices();
  ASSERT_GE(slices(opt), 8u);

  auto r = run_campaign(f.low.netlist, f.stim, f.faults, opt);
  ASSERT_TRUE(r) << r.error().to_string();
  EXPECT_EQ(r->completed_slices, slices(opt));
  EXPECT_EQ(r->sim.stats.schedule_compilations, 1u);
  EXPECT_EQ(r->sim.stats.good_trace_cycles, f.stim.size());
  const auto one_shot = scratch_result(f);
  EXPECT_EQ(r->sim.detect_cycle, one_shot.detect_cycle);
  EXPECT_EQ(r->sim.detected, one_shot.detected);
}

TEST_F(ArtifactCache, FullyResumedCampaignBuildsNothing) {
  // Every slice comes back from the checkpoint, so no slice runs and
  // the campaign has nothing to prepare for.
  const auto& f = fixture();
  CampaignOptions opt = ten_slices();
  opt.checkpoint_path = (dir_ / "c.ckpt").string();
  ASSERT_TRUE(run_campaign(f.low.netlist, f.stim, f.faults, opt));

  opt.resume = true;
  auto r = run_campaign(f.low.netlist, f.stim, f.faults, opt);
  ASSERT_TRUE(r) << r.error().to_string();
  EXPECT_EQ(r->resumed_slices, slices(opt));
  EXPECT_EQ(r->completed_slices, 0u);
  EXPECT_EQ(r->sim.stats.schedule_compilations, 0u);
  EXPECT_EQ(r->sim.stats.good_trace_cycles, 0u);
  EXPECT_EQ(r->sim.detect_cycle, scratch_result(f).detect_cycle);
}

} // namespace
} // namespace fdbist::fault
