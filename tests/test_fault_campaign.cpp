// Checkpointed, cancellable fault-sim campaigns: resume must be
// bit-identical to an uninterrupted run (for any thread count and any
// interruption point), unusable checkpoints must be refused with typed
// errors, and cancellation/deadlines must yield valid partial results
// without hanging the pool. The merge audits that combine slices are
// checked here too.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <numeric>
#include <random>
#include <span>
#include <string>
#include <vector>

#include <signal.h>

#include "common/atomic_file.hpp"
#include "common/fingerprint.hpp"
#include "fault/campaign.hpp"
#include "fault/checkpoint.hpp"
#include "gate/lower.hpp"
#include "rtl/fir_builder.hpp"
#include "tpg/generators.hpp"
#include "tpg/lfsr.hpp"

namespace fdbist::fault {
namespace {

struct Fixture {
  rtl::FilterDesign design;
  gate::LoweredDesign low;
  std::vector<Fault> faults;
  std::vector<std::int64_t> stim;
};

// Small enough for fast tests, big enough that a campaign with
// checkpoint_every=64 spans several slices.
const Fixture& fixture() {
  static const Fixture f = [] {
    auto d = rtl::build_fir(
        {0.27, -0.19, 0.13, 0.094, -0.071, 0.052, -0.038, 0.024}, {},
        "camp8");
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

// A second design/stimulus pair for fingerprint-mismatch tests.
const Fixture& other_fixture() {
  static const Fixture f = [] {
    auto d = rtl::build_fir({0.31, -0.22, 0.11, 0.05}, {}, "camp4");
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

/// Fresh per-test scratch path (no checkpoint file exists yet).
class CampaignTest : public ::testing::Test {
protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("fdbist_campaign_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const char* name = "c.ckpt") const {
    return (dir_ / name).string();
  }

private:
  std::filesystem::path dir_;
};

FaultSimResult uninterrupted() {
  FaultSimOptions opt;
  opt.num_threads = 1;
  return simulate_faults(fixture().low.netlist, fixture().stim,
                         fixture().faults, opt);
}

void expect_bit_identical(const FaultSimResult& r) {
  const auto oracle = uninterrupted();
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.detected, oracle.detected);
  EXPECT_EQ(r.total_faults, oracle.total_faults);
  ASSERT_EQ(r.detect_cycle.size(), oracle.detect_cycle.size());
  for (std::size_t i = 0; i < r.detect_cycle.size(); ++i)
    ASSERT_EQ(r.detect_cycle[i], oracle.detect_cycle[i]) << "fault " << i;
}

TEST_F(CampaignTest, FixtureSpansSeveralSlices) {
  ASSERT_GT(fixture().faults.size(), std::size_t{4} * 64)
      << "fixture too small to exercise slicing";
}

SignatureOptions test_signature(int width) {
  SignatureOptions sig;
  sig.width = width;
  sig.taps = tpg::default_polynomial(width).low_terms;
  return sig;
}

/// The kernel's work counters, which a campaign shares with a one-shot
/// run over the same faults when it runs the one-shot pass plan.
void expect_same_work(const FaultSimStats& got, const FaultSimStats& want) {
  EXPECT_EQ(got.batches, want.batches);
  EXPECT_EQ(got.cycles_simulated, want.cycles_simulated);
  EXPECT_EQ(got.cycles_budgeted, want.cycles_budgeted);
  EXPECT_EQ(got.segment_overhead_cycles, want.segment_overhead_cycles);
  EXPECT_EQ(got.gates_evaluated, want.gates_evaluated);
  EXPECT_EQ(got.gates_full_sweep, want.gates_full_sweep);
  EXPECT_EQ(got.cone_fraction_sum, want.cone_fraction_sum);
}

TEST_F(CampaignTest, CompleteCampaignMatchesPlainEngine) {
  // A campaign is one simulate_faults call over its universe: verdicts
  // and work counters equal the one-shot run's, and the one checkpoint
  // it saves has every slice finalized with the one-shot verdicts.
  const std::size_t slices = (fixture().faults.size() + 63) / 64;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    for (const int sig_width : {0, 10}) {
      CampaignOptions opt;
      opt.num_threads = threads;
      if (sig_width != 0) opt.signature = test_signature(sig_width);
      opt.checkpoint_every = 64;
      opt.checkpoint_path = path();
      auto r = run_campaign(fixture().low.netlist, fixture().stim,
                            fixture().faults, opt);
      ASSERT_TRUE(r) << r.error().to_string();
      expect_bit_identical(r->sim);
      EXPECT_FALSE(r->stop_reason.has_value());
      const FaultSimResult one_shot = simulate_faults(
          fixture().low.netlist, fixture().stim, fixture().faults, opt);
      EXPECT_EQ(r->sim.signature_detect, one_shot.signature_detect);
      expect_same_work(r->sim.stats, one_shot.stats);

      EXPECT_EQ(r->completed_slices, slices);
      EXPECT_EQ(r->checkpoints_written, 1u);
      auto saved = load_checkpoint(opt.checkpoint_path);
      ASSERT_TRUE(saved) << saved.error().to_string();
      EXPECT_EQ(saved->slice_finalized, std::vector<std::uint8_t>(slices, 1));
      EXPECT_EQ(saved->detect_cycle, one_shot.detect_cycle);
      EXPECT_EQ(saved->signature_detect, one_shot.signature_detect);
    }
  }
}

Checkpoint tagged_checkpoint(std::int32_t tag) {
  Checkpoint ck;
  ck.netlist_fp = 1;
  ck.stimulus_fp = 2;
  ck.faults_fp = 3;
  ck.stimulus_len = 16;
  ck.slice_size = 4;
  ck.slice_finalized = {1, 1};
  ck.detect_cycle.assign(8, tag);
  return ck;
}

TEST_F(CampaignTest, CheckpointRoundTrips) {
  Checkpoint ck;
  ck.netlist_fp = 0x1111;
  ck.stimulus_fp = 0x2222;
  ck.faults_fp = 0x3333;
  ck.stimulus_len = 256;
  ck.slice_size = 10;
  ck.slice_finalized = {1, 0, 1};
  ck.detect_cycle.assign(25, -1);
  ck.detect_cycle[3] = 17;
  ck.detect_cycle[24] = 123456;

  auto saved = save_checkpoint(path(), ck);
  ASSERT_TRUE(saved) << saved.error().to_string();
  auto loaded = load_checkpoint(path());
  ASSERT_TRUE(loaded) << loaded.error().to_string();
  EXPECT_EQ(loaded->netlist_fp, ck.netlist_fp);
  EXPECT_EQ(loaded->stimulus_fp, ck.stimulus_fp);
  EXPECT_EQ(loaded->faults_fp, ck.faults_fp);
  EXPECT_EQ(loaded->stimulus_len, ck.stimulus_len);
  EXPECT_EQ(loaded->slice_size, ck.slice_size);
  EXPECT_EQ(loaded->slice_finalized, ck.slice_finalized);
  EXPECT_EQ(loaded->detect_cycle, ck.detect_cycle);
}

TEST_F(CampaignTest, CheckpointBytesArePinned) {
  // FDBC v2 is a stable format: a checkpoint written by an older build
  // must resume under this one. The sizes and whole-file FNV-1a digests
  // below were measured on the writer that predates the shared codec
  // (common/binfile.hpp), so any change to the layout moves them.
  Checkpoint sig = tagged_checkpoint(11);
  sig.family = 2;
  sig.sig_width = 10;
  sig.sig_taps = 0x9;
  sig.slice_finalized = {1, 0};
  sig.detect_cycle = {0, 5, -1, 7, -1, -1, -1, -1};
  sig.signature_detect = {1, 1, 0, 0, 0, 0, 0, 0};
  const struct {
    Checkpoint ck;
    std::size_t size;
    std::uint64_t fnv;
  } cases[] = {{tagged_checkpoint(11), 121, 0xf1a7e4ce909ee8abULL},
               {sig, 129, 0xab3145361467f19bULL}};
  for (const auto& c : cases) {
    ASSERT_TRUE(save_checkpoint(path(), c.ck));
    std::ifstream in(path(), std::ios::binary);
    const std::vector<char> bytes{std::istreambuf_iterator<char>(in),
                                  std::istreambuf_iterator<char>()};
    EXPECT_EQ(bytes.size(), c.size);
    EXPECT_EQ(common::fnv1a(common::kFnvSeed, bytes.data(), bytes.size()),
              c.fnv)
        << "sig_width " << c.ck.sig_width;
  }
}

// The core robustness guarantee: cancel a campaign at several points
// (simulating a kill), then resume from the checkpoint file — the final
// result must be bit-identical to an uninterrupted run, single- and
// multi-threaded.
TEST_F(CampaignTest, ResumeEqualsUninterruptedAtEveryCutPoint) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    for (const std::size_t cut : {std::size_t{1}, std::size_t{2},
                                  std::size_t{5}}) {
      const std::string file =
          path(("cut" + std::to_string(threads) + "_" + std::to_string(cut))
                   .c_str());

      common::CancelToken token;
      CampaignOptions opt;
      opt.num_threads = threads;
      opt.checkpoint_every = 64;
      opt.checkpoint_path = file;
      opt.cancel = &token;
      std::size_t calls = 0;
      opt.progress = [&](std::size_t, std::size_t) {
        if (++calls >= cut) token.cancel();
      };
      auto first = run_campaign(fixture().low.netlist, fixture().stim,
                                fixture().faults, opt);
      ASSERT_TRUE(first) << first.error().to_string();
      ASSERT_FALSE(first->sim.complete)
          << "cut " << cut << " did not interrupt the campaign";
      EXPECT_EQ(first->stop_reason, ErrorCode::Cancelled);

      CampaignOptions resume_opt;
      resume_opt.num_threads = threads;
      resume_opt.checkpoint_every = 64;
      resume_opt.checkpoint_path = file;
      resume_opt.resume = true;
      auto resumed = run_campaign(fixture().low.netlist, fixture().stim,
                                  fixture().faults, resume_opt);
      ASSERT_TRUE(resumed) << resumed.error().to_string();
      EXPECT_EQ(resumed->resumed_slices, first->completed_slices)
          << "resume must pick up exactly the finalized slices";
      expect_bit_identical(resumed->sim);
    }
  }
}

// Satellite of the verification PR: a checkpoint written under one
// FaultSimEngine must be resumable under the other. Verdicts are pure
// functions of (netlist, stimulus, fault) — the engine is deliberately
// excluded from the checkpoint fingerprint — so every cross-engine
// combination must merge to the bit-identical uninterrupted result.
TEST_F(CampaignTest, ResumeUnderADifferentEngineIsBitIdentical) {
  using Engine = FaultSimEngine;
  for (const auto& [first_engine, resume_engine] :
       {std::pair{Engine::FullSweep, Engine::Compiled},
        std::pair{Engine::Compiled, Engine::FullSweep},
        std::pair{Engine::FullSweep, Engine::Auto}}) {
    const std::string file = path(
        (std::string("mixed_") + fault_sim_engine_name(first_engine) + "_" +
         fault_sim_engine_name(resume_engine))
            .c_str());

    common::CancelToken token;
    CampaignOptions opt;
    opt.num_threads = 1;
    opt.engine = first_engine;
    opt.checkpoint_every = 64;
    opt.checkpoint_path = file;
    opt.cancel = &token;
    std::size_t calls = 0;
    opt.progress = [&](std::size_t, std::size_t) {
      if (++calls >= 2) token.cancel();
    };
    auto first = run_campaign(fixture().low.netlist, fixture().stim,
                              fixture().faults, opt);
    ASSERT_TRUE(first) << first.error().to_string();
    ASSERT_FALSE(first->sim.complete);
    EXPECT_EQ(first->sim.stats.engine, first_engine);

    CampaignOptions resume_opt;
    resume_opt.num_threads = 2;
    resume_opt.engine = resume_engine;
    resume_opt.checkpoint_every = 64;
    resume_opt.checkpoint_path = file;
    resume_opt.resume = true;
    auto resumed = run_campaign(fixture().low.netlist, fixture().stim,
                                fixture().faults, resume_opt);
    ASSERT_TRUE(resumed) << resumed.error().to_string();
    EXPECT_EQ(resumed->resumed_slices, first->completed_slices);
    expect_bit_identical(resumed->sim);
  }
}

TEST_F(CampaignTest, EngineOptionIsForwardedToEachSlice) {
  for (const auto engine :
       {FaultSimEngine::FullSweep, FaultSimEngine::Compiled}) {
    CampaignOptions opt;
    opt.num_threads = 1;
    opt.engine = engine;
    opt.checkpoint_every = 64;
    auto r = run_campaign(fixture().low.netlist, fixture().stim,
                          fixture().faults, opt);
    ASSERT_TRUE(r) << r.error().to_string();
    EXPECT_EQ(r->sim.stats.engine, engine);
    if (engine == FaultSimEngine::FullSweep)
      EXPECT_EQ(r->sim.stats.gates_evaluated, r->sim.stats.gates_full_sweep);
    else
      EXPECT_LT(r->sim.stats.gates_evaluated, r->sim.stats.gates_full_sweep);
    expect_bit_identical(r->sim);
  }
}

// A checkpoint may hold any set of finalized slices: a prefix, which
// builds that ran a campaign slice by slice and saved after every slice
// left when killed, or a scattered set, which a cancelled campaign call
// leaves when only some slices had every fault detected. Both must
// resume, running exactly the faults of the slices not finalized.
TEST_F(CampaignTest, ResumesCheckpointsSavedAfterEverySlice) {
  const Fixture& f = fixture();
  const std::size_t n = f.faults.size();
  const std::size_t slices = (n + 63) / 64;
  const FaultSimResult oracle = uninterrupted();
  std::vector<std::uint8_t> prefix(slices, 0);
  std::vector<std::uint8_t> alternate(slices, 0);
  for (std::size_t s = 0; s < slices; ++s) {
    prefix[s] = s < slices / 2;
    alternate[s] = s % 2 == 0;
  }
  for (const auto* flags : {&prefix, &alternate}) {
    Checkpoint ck;
    ck.netlist_fp = fingerprint_netlist(f.low.netlist);
    ck.stimulus_fp = fingerprint_stimulus(f.stim);
    ck.faults_fp = fingerprint_faults(f.faults);
    ck.stimulus_len = f.stim.size();
    ck.slice_size = 64;
    ck.slice_finalized = *flags;
    ck.detect_cycle.assign(n, -1);
    std::vector<Fault> unfinished;
    for (std::size_t i = 0; i < n; ++i) {
      if ((*flags)[i / 64])
        ck.detect_cycle[i] = oracle.detect_cycle[i];
      else
        unfinished.push_back(f.faults[i]);
    }
    const auto restored =
        std::size_t(std::count(flags->begin(), flags->end(), 1));
    ASSERT_GT(restored, 0u);
    ASSERT_FALSE(unfinished.empty());

    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      const std::string file = path(
          ((flags == &prefix ? "prefix_" : "alternate_") +
           std::to_string(threads))
              .c_str());
      ASSERT_TRUE(save_checkpoint(file, ck));
      CampaignOptions opt;
      opt.num_threads = threads;
      opt.checkpoint_every = 64;
      opt.checkpoint_path = file;
      opt.resume = true;
      auto r = run_campaign(f.low.netlist, f.stim, f.faults, opt);
      ASSERT_TRUE(r) << r.error().to_string();
      expect_bit_identical(r->sim);
      EXPECT_EQ(r->resumed_slices, restored);
      EXPECT_EQ(r->completed_slices, slices - restored);
      FaultSimOptions rest;
      rest.num_threads = threads;
      EXPECT_EQ(r->sim.stats.batches,
                simulate_faults(f.low.netlist, f.stim, unfinished, rest)
                    .stats.batches);
    }
  }
}

TEST_F(CampaignTest, ResumeOfCompletedCampaignIsIdenticalAndRunsNothing) {
  CampaignOptions opt;
  opt.num_threads = 2;
  opt.checkpoint_every = 64;
  opt.checkpoint_path = path();
  auto first = run_campaign(fixture().low.netlist, fixture().stim,
                            fixture().faults, opt);
  ASSERT_TRUE(first);
  ASSERT_TRUE(first->sim.complete);

  opt.resume = true;
  auto again = run_campaign(fixture().low.netlist, fixture().stim,
                            fixture().faults, opt);
  ASSERT_TRUE(again);
  EXPECT_EQ(again->completed_slices, 0u);
  EXPECT_EQ(again->checkpoints_written, 0u);
  expect_bit_identical(again->sim);
}

TEST_F(CampaignTest, MissingCheckpointWithResumeIsAFreshStart) {
  CampaignOptions opt;
  opt.checkpoint_every = 64;
  opt.checkpoint_path = path("never_written.ckpt");
  opt.resume = true;
  auto r = run_campaign(fixture().low.netlist, fixture().stim,
                        fixture().faults, opt);
  ASSERT_TRUE(r) << r.error().to_string();
  EXPECT_EQ(r->resumed_slices, 0u);
  expect_bit_identical(r->sim);
}

Expected<CampaignResult> resume_from(const std::string& file) {
  CampaignOptions opt;
  opt.checkpoint_every = 64;
  opt.checkpoint_path = file;
  opt.resume = true;
  return run_campaign(fixture().low.netlist, fixture().stim,
                      fixture().faults, opt);
}

/// Write a complete valid checkpoint for the fixture and return its path.
std::string write_valid_checkpoint(const std::string& file) {
  CampaignOptions opt;
  opt.checkpoint_every = 64;
  opt.checkpoint_path = file;
  auto r = run_campaign(fixture().low.netlist, fixture().stim,
                        fixture().faults, opt);
  EXPECT_TRUE(r);
  return file;
}

TEST_F(CampaignTest, TruncatedCheckpointIsCorrupt) {
  const auto file = write_valid_checkpoint(path());
  const auto full_size = std::filesystem::file_size(file);
  for (const std::uintmax_t keep :
       {std::uintmax_t{0}, std::uintmax_t{10}, std::uintmax_t{70},
        full_size - 1}) {
    std::filesystem::resize_file(file, keep);
    auto r = resume_from(file);
    ASSERT_FALSE(r) << "kept " << keep << " of " << full_size << " bytes";
    EXPECT_EQ(r.error().code, ErrorCode::CorruptCheckpoint) << keep;
  }
}

TEST_F(CampaignTest, CorruptedMagicAndVersionAreRefused) {
  const auto file = write_valid_checkpoint(path());
  {
    std::fstream f(file, std::ios::in | std::ios::out | std::ios::binary);
    f.write("NOPE", 4); // clobber magic
  }
  auto bad_magic = resume_from(file);
  ASSERT_FALSE(bad_magic);
  EXPECT_EQ(bad_magic.error().code, ErrorCode::CorruptCheckpoint);

  write_valid_checkpoint(file);
  {
    std::fstream f(file, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(4);
    const std::uint32_t future = 999;
    f.write(reinterpret_cast<const char*>(&future), sizeof future);
  }
  auto bad_version = resume_from(file);
  ASSERT_FALSE(bad_version);
  EXPECT_EQ(bad_version.error().code, ErrorCode::CorruptCheckpoint);
  EXPECT_NE(bad_version.error().message.find("version"), std::string::npos);
}

TEST_F(CampaignTest, FlippedPayloadByteFailsChecksum) {
  const auto file = write_valid_checkpoint(path());
  {
    std::fstream f(file, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(100);
    char x = 0;
    f.read(&x, 1);
    x = static_cast<char>(x ^ 0x5A); // guaranteed to differ
    f.seekp(100);
    f.write(&x, 1);
  }
  auto r = resume_from(file);
  ASSERT_FALSE(r);
  EXPECT_EQ(r.error().code, ErrorCode::CorruptCheckpoint);
  EXPECT_NE(r.error().message.find("checksum"), std::string::npos);
}

TEST_F(CampaignTest, OverflowingFaultCountIsCorrupt) {
  // A well-framed 93-byte file whose fault count and slice size are
  // both 2^62 + 1. The header's geometry is consistent (one slice), and
  // fault_count * 4 wraps to the 4 bytes the file holds, so only a
  // count checked against the bytes left refuses it.
  const std::uint64_t huge = (std::uint64_t{1} << 62) + 1;
  std::vector<std::uint8_t> bytes{'F', 'D', 'B', 'C'};
  const auto put = [&](std::uint64_t v, int width) {
    for (int i = 0; i < width; ++i) bytes.push_back(std::uint8_t(v >> (8 * i)));
  };
  put(kCheckpointVersion, 4);
  for (const std::uint64_t field : {std::uint64_t{1}, std::uint64_t{2},
                                    std::uint64_t{3}, huge,
                                    std::uint64_t{256}, huge,
                                    std::uint64_t{1}})
    put(field, 8); // fingerprints, faults, vectors, slice size, slices
  for (int i = 0; i < 4; ++i) put(0, 4); // family, sig width/taps, reserved
  put(1, 1);                             // bitmap: the one slice is final
  put(0, 4);                             // one detect_cycle entry
  put(common::fnv1a(common::kFnvSeed, bytes.data(), bytes.size()), 8);
  ASSERT_EQ(bytes.size(), 93u);
  const std::string file = path();
  {
    std::ofstream out(file, std::ios::binary);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              std::streamsize(bytes.size()));
  }

  auto loaded = load_checkpoint(file);
  ASSERT_FALSE(loaded);
  EXPECT_EQ(loaded.error().code, ErrorCode::CorruptCheckpoint);
  auto resumed = resume_from(file);
  ASSERT_FALSE(resumed);
  EXPECT_EQ(resumed.error().code, ErrorCode::CorruptCheckpoint);
}

TEST_F(CampaignTest, ForeignCheckpointsAreRefusedWithFingerprintMismatch) {
  // Checkpoint written by a different *design*.
  {
    CampaignOptions opt;
    opt.checkpoint_every = 64;
    opt.checkpoint_path = path("foreign_design.ckpt");
    auto r = run_campaign(other_fixture().low.netlist, other_fixture().stim,
                          other_fixture().faults, opt);
    ASSERT_TRUE(r);
    auto refused = resume_from(opt.checkpoint_path);
    ASSERT_FALSE(refused);
    EXPECT_EQ(refused.error().code, ErrorCode::FingerprintMismatch);
  }
  // Same design, different *stimulus*.
  {
    CampaignOptions opt;
    opt.checkpoint_every = 64;
    opt.checkpoint_path = path("foreign_stim.ckpt");
    auto gen = tpg::make_generator(tpg::GeneratorKind::Ramp, 12);
    const auto other_stim = gen->generate_raw(256);
    auto r = run_campaign(fixture().low.netlist, other_stim,
                          fixture().faults, opt);
    ASSERT_TRUE(r);
    auto refused = resume_from(opt.checkpoint_path);
    ASSERT_FALSE(refused);
    EXPECT_EQ(refused.error().code, ErrorCode::FingerprintMismatch);
    EXPECT_NE(refused.error().message.find("stimulus"), std::string::npos);
  }
  // Same campaign, different slice geometry.
  {
    const auto file = write_valid_checkpoint(path("geometry.ckpt"));
    CampaignOptions opt;
    opt.checkpoint_every = 32; // was written with 64
    opt.checkpoint_path = file;
    opt.resume = true;
    auto refused = run_campaign(fixture().low.netlist, fixture().stim,
                                fixture().faults, opt);
    ASSERT_FALSE(refused);
    EXPECT_EQ(refused.error().code, ErrorCode::FingerprintMismatch);
  }
}

TEST_F(CampaignTest, SignatureCampaignMatchesOneShotThroughKillAndResume) {
  // Signature verdicts ride in the checkpoint next to detect_cycle, so
  // a campaign cancelled mid-flight and resumed must reproduce BOTH
  // verdict sets of a one-shot signature run bit-for-bit.
  const SignatureOptions sig = test_signature(10);
  FaultSimOptions sopt;
  sopt.num_threads = 1;
  sopt.signature = sig;
  const auto oracle = simulate_faults(fixture().low.netlist, fixture().stim,
                                      fixture().faults, sopt);
  ASSERT_EQ(oracle.signature_detect.size(), fixture().faults.size());
  ASSERT_GT(oracle.signature_detected(), 0u);

  common::CancelToken token;
  CampaignOptions opt;
  opt.num_threads = 1;
  opt.signature = sig;
  opt.checkpoint_every = 64;
  opt.checkpoint_path = path();
  opt.cancel = &token;
  std::size_t calls = 0;
  opt.progress = [&](std::size_t, std::size_t) {
    if (++calls >= 2) token.cancel();
  };
  auto first = run_campaign(fixture().low.netlist, fixture().stim,
                            fixture().faults, opt);
  ASSERT_TRUE(first) << first.error().to_string();
  ASSERT_FALSE(first->sim.complete);

  CampaignOptions resume_opt;
  resume_opt.num_threads = 2;
  resume_opt.signature = sig;
  resume_opt.checkpoint_every = 64;
  resume_opt.checkpoint_path = path();
  resume_opt.resume = true;
  auto resumed = run_campaign(fixture().low.netlist, fixture().stim,
                              fixture().faults, resume_opt);
  ASSERT_TRUE(resumed) << resumed.error().to_string();
  EXPECT_TRUE(resumed->sim.complete);
  EXPECT_EQ(resumed->sim.detect_cycle, oracle.detect_cycle);
  EXPECT_EQ(resumed->sim.signature_detect, oracle.signature_detect);
  EXPECT_EQ(resumed->sim.signature_detected(), oracle.signature_detected());
  EXPECT_EQ(resumed->sim.aliased(), oracle.aliased());
}

TEST_F(CampaignTest, ForeignFamilyTagIsRefusedOnResume) {
  // Identical netlist/stimulus/faults, different declared design family:
  // the family tag is part of the checkpoint audit precisely because
  // the structural fingerprints cannot tell such twins apart.
  CampaignOptions opt;
  opt.family = 1;
  opt.checkpoint_every = 64;
  opt.checkpoint_path = path();
  ASSERT_TRUE(run_campaign(fixture().low.netlist, fixture().stim,
                           fixture().faults, opt));

  CampaignOptions other = opt;
  other.family = 2;
  other.resume = true;
  auto refused = run_campaign(fixture().low.netlist, fixture().stim,
                              fixture().faults, other);
  ASSERT_FALSE(refused);
  EXPECT_EQ(refused.error().code, ErrorCode::FingerprintMismatch);
  EXPECT_NE(refused.error().message.find("family"), std::string::npos);
}

TEST_F(CampaignTest, ForeignSignatureConfigurationIsRefusedOnResume) {
  CampaignOptions opt;
  opt.signature = test_signature(10);
  opt.checkpoint_every = 64;
  opt.checkpoint_path = path();
  ASSERT_TRUE(run_campaign(fixture().low.netlist, fixture().stim,
                           fixture().faults, opt));

  // A different MISR width changes the verdict set.
  CampaignOptions wider = opt;
  wider.signature = test_signature(12);
  wider.resume = true;
  auto refused = run_campaign(fixture().low.netlist, fixture().stim,
                              fixture().faults, wider);
  ASSERT_FALSE(refused);
  EXPECT_EQ(refused.error().code, ErrorCode::FingerprintMismatch);

  // So does dropping compaction entirely.
  CampaignOptions plain = opt;
  plain.signature = {};
  plain.resume = true;
  refused = run_campaign(fixture().low.netlist, fixture().stim,
                         fixture().faults, plain);
  ASSERT_FALSE(refused);
  EXPECT_EQ(refused.error().code, ErrorCode::FingerprintMismatch);
}

TEST_F(CampaignTest, DeadlineYieldsPartialResultAndReason) {
  CampaignOptions opt;
  opt.num_threads = 4;
  opt.checkpoint_every = 64;
  opt.deadline_s = 1e-9; // expires immediately; workers must still join
  auto r = run_campaign(fixture().low.netlist, fixture().stim,
                        fixture().faults, opt);
  ASSERT_TRUE(r);
  EXPECT_FALSE(r->sim.complete);
  EXPECT_EQ(r->stop_reason, ErrorCode::DeadlineExceeded);
  EXPECT_EQ(r->sim.total_faults, fixture().faults.size());
  // Coverage-so-far is consistent: detected counts only real verdicts.
  std::size_t detected = 0;
  for (const std::int32_t c : r->sim.detect_cycle)
    if (c >= 0) ++detected;
  EXPECT_EQ(r->sim.detected, detected);
}

TEST_F(CampaignTest, PreCancelledCampaignRunsNothing) {
  common::CancelToken token;
  token.cancel();
  CampaignOptions opt;
  opt.checkpoint_every = 64;
  opt.checkpoint_path = path();
  opt.cancel = &token;
  auto r = run_campaign(fixture().low.netlist, fixture().stim,
                        fixture().faults, opt);
  ASSERT_TRUE(r) << r.error().to_string();
  EXPECT_EQ(r->stop_reason, ErrorCode::Cancelled);
  EXPECT_EQ(r->completed_slices, 0u);
  EXPECT_FALSE(r->sim.complete);
  EXPECT_FALSE(std::filesystem::exists(opt.checkpoint_path))
      << "a pre-cancelled campaign must not write a checkpoint";
}

TEST_F(CampaignTest, OversizedStimulusIsRefusedLoudly) {
  // A span can claim an enormous extent without backing memory — the
  // guard must fire before any simulation touches it.
  std::span<const std::int64_t> bogus(
      fixture().stim.data(),
      std::size_t(std::numeric_limits<std::int32_t>::max()) + 1);
  FaultSimOptions opt;
  EXPECT_THROW(simulate_faults(fixture().low.netlist, bogus,
                               fixture().faults, opt),
               precondition_error);
}

// ---------------------------------------------------------------------------
// Crash consistency of the atomic checkpoint write. Each death test
// SIGKILLs a forked child at one crash seam of atomic_write_file
// (common/atomic_file.hpp) inside save_checkpoint and then audits the
// filesystem the child left behind: at no seam may a torn or
// half-renamed file ever load.

class CampaignDeathTest : public CampaignTest {};

TEST_F(CampaignDeathTest, TornWriteNeverYieldsALoadableFile) {
  const std::string p = path();
  const Checkpoint ck = tagged_checkpoint(11);
  // The size of the whole file, from an intact save elsewhere.
  ASSERT_TRUE(save_checkpoint(path("whole.ckpt"), ck));
  const auto size = std::filesystem::file_size(path("whole.ckpt"));
  // The torn-write seam writes half the file before it dies.
  EXPECT_EXIT(
      {
        common::arm_crash_seam(common::CrashSeam::TornWrite);
        (void)save_checkpoint(p, ck);
      },
      ::testing::KilledBySignal(SIGKILL), "");
  EXPECT_FALSE(std::filesystem::exists(p))
      << "a crash before the rename must leave the target untouched";
  EXPECT_FALSE(load_checkpoint(p));
  // The half-written tmp file is there, and refuses to load.
  ASSERT_TRUE(std::filesystem::exists(p + ".tmp"));
  EXPECT_EQ(std::filesystem::file_size(p + ".tmp"), size / 2);
  const auto torn = load_checkpoint(p + ".tmp");
  ASSERT_FALSE(torn);
  EXPECT_EQ(torn.error().code, ErrorCode::CorruptCheckpoint);
}

TEST_F(CampaignDeathTest, CrashBeforeRenameLeavesNoCheckpoint) {
  const std::string p = path();
  const Checkpoint ck = tagged_checkpoint(22);
  EXPECT_EXIT(
      {
        common::arm_crash_seam(common::CrashSeam::BeforeRename);
        (void)save_checkpoint(p, ck);
      },
      ::testing::KilledBySignal(SIGKILL), "");
  EXPECT_FALSE(std::filesystem::exists(p));
  EXPECT_FALSE(load_checkpoint(p));
}

TEST_F(CampaignDeathTest, CrashBeforeRenameKeepsThePreviousCheckpoint) {
  const std::string p = path();
  const Checkpoint old_ck = tagged_checkpoint(33);
  ASSERT_TRUE(save_checkpoint(p, old_ck));
  const Checkpoint new_ck = tagged_checkpoint(44);
  EXPECT_EXIT(
      {
        common::arm_crash_seam(common::CrashSeam::BeforeRename);
        (void)save_checkpoint(p, new_ck);
      },
      ::testing::KilledBySignal(SIGKILL), "");
  auto survivor = load_checkpoint(p);
  ASSERT_TRUE(survivor) << "previous good checkpoint must still load: "
                        << survivor.error().to_string();
  EXPECT_EQ(survivor->detect_cycle, old_ck.detect_cycle)
      << "the interrupted save must not have replaced the old content";
}

TEST_F(CampaignDeathTest, CrashAfterRenameIsDurable) {
  const std::string p = path();
  const Checkpoint ck = tagged_checkpoint(55);
  EXPECT_EXIT(
      {
        common::arm_crash_seam(common::CrashSeam::AfterRename);
        (void)save_checkpoint(p, ck);
      },
      ::testing::KilledBySignal(SIGKILL), "");
  auto loaded = load_checkpoint(p);
  ASSERT_TRUE(loaded) << "a renamed checkpoint is committed: "
                      << loaded.error().to_string();
  EXPECT_EQ(loaded->detect_cycle, ck.detect_cycle);
  EXPECT_EQ(loaded->slice_finalized, ck.slice_finalized);
}

// ---------------------------------------------------------------------------
// FaultSimResult::merge audits: the one path campaign slices and
// checkpoint restores take into a result.

/// One-shot single-threaded verdicts over the fixture, cut into windows
/// by the merge tests.
const FaultSimResult& reference() {
  static const FaultSimResult r = uninterrupted();
  return r;
}

/// An unmerged result shell over the fixture universe.
FaultSimResult empty_like(const FaultSimResult& ref) {
  FaultSimResult r;
  r.total_faults = ref.total_faults;
  r.vectors = ref.vectors;
  r.detect_cycle.assign(ref.total_faults, -1);
  r.finalized.assign(ref.total_faults, 0);
  r.complete = false;
  return r;
}

/// A fully finalized partial covering [lo, lo+count) of `ref`.
FaultSimResult window(const FaultSimResult& ref, std::size_t lo,
                      std::size_t count) {
  FaultSimResult p;
  p.total_faults = count;
  p.vectors = ref.vectors;
  p.detect_cycle.assign(ref.detect_cycle.begin() + long(lo),
                        ref.detect_cycle.begin() + long(lo + count));
  p.finalized.assign(count, 1);
  for (const std::int32_t c : p.detect_cycle)
    if (c >= 0) ++p.detected;
  return p;
}

struct Slice {
  std::size_t lo;
  std::size_t count;
};

std::vector<Slice> random_partition(std::mt19937_64& rng, std::size_t n) {
  std::vector<Slice> out;
  std::size_t lo = 0;
  while (lo < n) {
    std::uniform_int_distribution<std::size_t> d(
        1, std::max<std::size_t>(1, (n - lo + 3) / 4));
    const std::size_t c = std::min(n - lo, d(rng));
    out.push_back({lo, c});
    lo += c;
  }
  return out;
}

TEST(ResultMerge, MergeIsAssociativeAndCommutativeOverDisjointWindows) {
  const FaultSimResult& ref = reference();
  const std::size_t n = ref.total_faults;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    std::mt19937_64 rng(seed);
    const auto parts = random_partition(rng, n);
    ASSERT_GT(parts.size(), 2u);

    std::vector<std::size_t> order(parts.size());
    std::iota(order.begin(), order.end(), 0u);

    FaultSimResult first;
    for (int round = 0; round < 2; ++round) {
      std::shuffle(order.begin(), order.end(), rng);
      FaultSimResult base = empty_like(ref);
      for (const std::size_t k : order) {
        auto m = base.merge(window(ref, parts[k].lo, parts[k].count),
                            parts[k].lo);
        ASSERT_TRUE(m) << m.error().to_string();
      }
      ASSERT_EQ(base.finalized_count(), n);
      EXPECT_EQ(base.detected, ref.detected);
      EXPECT_EQ(base.detect_cycle, ref.detect_cycle);
      EXPECT_EQ(base.finalized, ref.finalized);
      if (round == 0)
        first = base;
      else
        EXPECT_EQ(first.detect_cycle, base.detect_cycle)
            << "arrival order changed the merged state (seed " << seed
            << ")";
    }
  }
}

TEST(ResultMerge, MergeRejectsOverlapEvenWhenVerdictsAgree) {
  const FaultSimResult& ref = reference();
  FaultSimResult base = empty_like(ref);
  ASSERT_TRUE(base.merge(window(ref, 0, 10), 0));
  const auto detected_before = base.detected;
  const auto cycles_before = base.detect_cycle;

  auto same = base.merge(window(ref, 0, 10), 0);
  ASSERT_FALSE(same) << "identical double-merge must still be an overlap";
  EXPECT_EQ(same.error().code, ErrorCode::MergeOverlap);

  auto shifted = base.merge(window(ref, 5, 10), 5);
  ASSERT_FALSE(shifted);
  EXPECT_EQ(shifted.error().code, ErrorCode::MergeOverlap);

  EXPECT_EQ(base.detected, detected_before) << "failed merge mutated state";
  EXPECT_EQ(base.detect_cycle, cycles_before);
}

TEST(ResultMerge, MergeRejectsBadWindowsAndVectorMismatch) {
  const FaultSimResult& ref = reference();
  const std::size_t n = ref.total_faults;
  FaultSimResult base = empty_like(ref);

  auto past_end = base.merge(window(ref, n - 5, 5), n - 4);
  ASSERT_FALSE(past_end);
  EXPECT_EQ(past_end.error().code, ErrorCode::InvalidArgument);

  auto off_oob = base.merge(window(ref, 0, 1), n + 1);
  ASSERT_FALSE(off_oob);
  EXPECT_EQ(off_oob.error().code, ErrorCode::InvalidArgument);

  FaultSimResult short_stim = window(ref, 0, 5);
  short_stim.vectors = ref.vectors - 1;
  auto vecs = base.merge(short_stim, 0);
  ASSERT_FALSE(vecs);
  EXPECT_EQ(vecs.error().code, ErrorCode::InvalidArgument);
}

TEST(ResultMerge, MergeRejectsSignaturePresenceMismatch) {
  // One side compacted responses, the other did not: the verdict sets
  // are not comparable and the merge must refuse, both ways round.
  const FaultSimResult& ref = reference();
  {
    FaultSimResult base = empty_like(ref);
    FaultSimResult part = window(ref, 0, 10);
    part.signature_detect.assign(10, 1);
    auto r = base.merge(part, 0);
    ASSERT_FALSE(r);
    EXPECT_EQ(r.error().code, ErrorCode::InvalidArgument);
  }
  {
    FaultSimResult base = empty_like(ref);
    base.signature_detect.assign(base.total_faults, 0);
    auto r = base.merge(window(ref, 0, 10), 0);
    ASSERT_FALSE(r);
    EXPECT_EQ(r.error().code, ErrorCode::InvalidArgument);
  }
  // Matching compacted sides merge and carry the verdicts across.
  {
    FaultSimResult base = empty_like(ref);
    base.signature_detect.assign(base.total_faults, 0);
    FaultSimResult part = window(ref, 5, 10);
    part.signature_detect.assign(10, 0);
    part.signature_detect[3] = 1;
    ASSERT_TRUE(base.merge(part, 5));
    EXPECT_EQ(base.signature_detect[8], 1);
  }
}

TEST(ResultMerge, MergeAbsorbsOnlyFinalizedEntries) {
  const FaultSimResult& ref = reference();
  FaultSimResult base = empty_like(ref);

  FaultSimResult evens = window(ref, 0, 10);
  FaultSimResult odds = window(ref, 0, 10);
  for (std::size_t i = 0; i < 10; ++i) {
    (i % 2 == 0 ? odds : evens).finalized[i] = 0;
    (i % 2 == 0 ? odds : evens).detect_cycle[i] = -1;
  }
  ASSERT_TRUE(base.merge(evens, 0));
  EXPECT_EQ(base.finalized[1], 0) << "unfinalized entries must not land";
  EXPECT_EQ(base.detect_cycle[1], -1);

  // The complementary half-finalized partial is NOT an overlap.
  ASSERT_TRUE(base.merge(odds, 0));
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(base.finalized[i], 1) << i;
    EXPECT_EQ(base.detect_cycle[i], ref.detect_cycle[i]) << i;
  }
}

} // namespace
} // namespace fdbist::fault
