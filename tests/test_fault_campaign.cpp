// Checkpointed, cancellable fault-sim campaigns: resume must be
// bit-identical to an uninterrupted run (for any thread count and any
// interruption point), unusable checkpoints must be refused with typed
// errors, and cancellation/deadlines must yield valid partial results
// without hanging the pool. A checkpoint records every verdict a call
// reached, and the files of older builds, which recorded coarser
// slices, still load. A campaign prepares once — one compile and one
// good trace, none when the checkpoint restores every fault — and the
// benchmark shims leave it alone.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include <signal.h>

#include "common/atomic_file.hpp"
#include "common/binfile.hpp"
#include "common/fingerprint.hpp"
#include "fault/campaign.hpp"
#include "fault/checkpoint.hpp"
#include "fault/schedule_cache.hpp"
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

// Small enough for fast tests, big enough that a campaign cancelled
// after a batch or two still has faults left to run.
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
  // it saves has every fault finalized with the one-shot verdicts.
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    for (const int sig_width : {0, 10}) {
      CampaignOptions opt;
      opt.num_threads = threads;
      if (sig_width != 0) opt.signature = test_signature(sig_width);
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

      EXPECT_EQ(r->checkpoints_written, 1u);
      auto saved = load_checkpoint(opt.checkpoint_path);
      ASSERT_TRUE(saved) << saved.error().to_string();
      EXPECT_EQ(saved->finalized, one_shot.finalized);
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
  ck.finalized.assign(8, 1);
  ck.detect_cycle.assign(8, tag);
  return ck;
}

TEST_F(CampaignTest, CheckpointRoundTrips) {
  Checkpoint ck;
  ck.netlist_fp = 0x1111;
  ck.stimulus_fp = 0x2222;
  ck.faults_fp = 0x3333;
  ck.stimulus_len = 256;
  ck.finalized.assign(25, 0);
  ck.detect_cycle.assign(25, -1);
  ck.finalized[3] = ck.finalized[9] = ck.finalized[24] = 1;
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
  EXPECT_EQ(loaded->finalized, ck.finalized);
  EXPECT_EQ(loaded->detect_cycle, ck.detect_cycle);
}

/// The signature checkpoint the pinned-bytes tests write: the first
/// four of its eight faults carry verdicts.
Checkpoint signature_checkpoint() {
  Checkpoint sig = tagged_checkpoint(11);
  sig.family = 2;
  sig.sig_width = 10;
  sig.sig_taps = 0x9;
  sig.finalized = {1, 1, 1, 1, 0, 0, 0, 0};
  sig.detect_cycle = {0, 5, -1, 7, -1, -1, -1, -1};
  sig.signature_detect = {1, 1, 0, 0, 0, 0, 0, 0};
  return sig;
}

std::uint64_t digest(std::span<const std::uint8_t> bytes) {
  return common::fnv1a(common::kFnvSeed, bytes.data(), bytes.size());
}

void write_bytes(const std::string& file,
                 std::span<const std::uint8_t> bytes) {
  std::ofstream out(file, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            std::streamsize(bytes.size()));
}

TEST_F(CampaignTest, CheckpointBytesArePinned) {
  // FDBC v2 is a stable format: a checkpoint written by this build must
  // resume under a later one. The writer records one flag per fault
  // (slice size 1); older builds' slice files keep their own pins in
  // SliceCheckpointsOfOlderBuildsLoad.
  const struct {
    Checkpoint ck;
    std::size_t size;
    std::uint64_t fnv;
  } cases[] = {{tagged_checkpoint(11), 121, 0xcabfad354944c71eULL},
               {signature_checkpoint(), 129, 0x5f7a42eee1e1f9dbULL}};
  for (const auto& c : cases) {
    ASSERT_TRUE(save_checkpoint(path(), c.ck));
    const auto bytes = common::read_file(path());
    ASSERT_TRUE(bytes) << bytes.error().to_string();
    EXPECT_EQ(bytes->size(), c.size);
    EXPECT_EQ(digest(*bytes), c.fnv) << "sig_width " << c.ck.sig_width;
  }
}

TEST_F(CampaignTest, SliceCheckpointsOfOlderBuildsLoad) {
  // Older builds wrote one flag per slice of a fixed number of faults.
  // These are their bytes for 4-fault slices, pinned by the sizes and
  // digests their writer was held to, and each fault loads its slice's
  // flag, so checkpoints of campaigns in progress still resume.
  const auto slice_file = [](const Checkpoint& ck, std::uint8_t slice_bits) {
    constexpr char kMagic[4] = {'F', 'D', 'B', 'C'};
    common::ByteWriter w = common::start_file(kMagic, kCheckpointVersion);
    w.put_u64(ck.netlist_fp);
    w.put_u64(ck.stimulus_fp);
    w.put_u64(ck.faults_fp);
    w.put_u64(ck.fault_count());
    w.put_u64(ck.stimulus_len);
    w.put_u64(4); // slice size
    w.put_u64(2); // slice count
    w.put_u32(ck.family);
    w.put_u32(ck.sig_width);
    w.put_u32(ck.sig_taps);
    w.put_u32(0); // reserved
    w.put_u8(slice_bits);
    w.put_array(ck.detect_cycle);
    w.put_array(ck.signature_detect);
    common::seal_file(w);
    return w.take();
  };
  const struct {
    Checkpoint ck;
    std::uint8_t slice_bits;
    std::size_t size;
    std::uint64_t fnv;
  } cases[] = {{tagged_checkpoint(11), 0b11, 121, 0xf1a7e4ce909ee8abULL},
               {signature_checkpoint(), 0b01, 129, 0xab3145361467f19bULL}};
  for (const auto& c : cases) {
    const auto bytes = slice_file(c.ck, c.slice_bits);
    EXPECT_EQ(bytes.size(), c.size);
    EXPECT_EQ(digest(bytes), c.fnv) << "sig_width " << c.ck.sig_width;
    write_bytes(path(), bytes);
    auto loaded = load_checkpoint(path());
    ASSERT_TRUE(loaded) << loaded.error().to_string();
    EXPECT_EQ(loaded->finalized, c.ck.finalized);
    EXPECT_EQ(loaded->detect_cycle, c.ck.detect_cycle);
    EXPECT_EQ(loaded->signature_detect, c.ck.signature_detect);
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
      resume_opt.checkpoint_path = file;
      resume_opt.resume = true;
      auto resumed = run_campaign(fixture().low.netlist, fixture().stim,
                                  fixture().faults, resume_opt);
      ASSERT_TRUE(resumed) << resumed.error().to_string();
      EXPECT_EQ(resumed->resumed_faults, first->sim.finalized_count())
          << "resume must pick up every verdict the cut call reached";
      expect_bit_identical(resumed->sim);
    }
  }
}

// Satellite of the verification PR: a checkpoint written under one
// FaultSimEngine must be resumable under the other. Verdicts are pure
// functions of (netlist, stimulus, fault) — the engine is deliberately
// excluded from the checkpoint fingerprint — so every cross-engine
// combination must resume to the bit-identical uninterrupted result.
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
    resume_opt.checkpoint_path = file;
    resume_opt.resume = true;
    auto resumed = run_campaign(fixture().low.netlist, fixture().stim,
                                fixture().faults, resume_opt);
    ASSERT_TRUE(resumed) << resumed.error().to_string();
    EXPECT_EQ(resumed->resumed_faults, first->sim.finalized_count());
    expect_bit_identical(resumed->sim);
  }
}

TEST_F(CampaignTest, EngineOptionIsForwardedToEachSlice) {
  for (const auto engine :
       {FaultSimEngine::FullSweep, FaultSimEngine::Compiled}) {
    CampaignOptions opt;
    opt.num_threads = 1;
    opt.engine = engine;
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

// A checkpoint may hold any set of finalized faults: a prefix, which
// builds that ran a campaign slice by slice and saved after every slice
// left when killed, or a scattered set, which a cancelled campaign call
// leaves. Both must resume, running exactly the faults not finalized.
TEST_F(CampaignTest, ResumesCheckpointsSavedAfterEverySlice) {
  const Fixture& f = fixture();
  const std::size_t n = f.faults.size();
  const FaultSimResult oracle = uninterrupted();
  std::vector<std::uint8_t> prefix(n, 0);
  std::vector<std::uint8_t> alternate(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    prefix[i] = i < n / 2;
    alternate[i] = i % 2 == 0;
  }
  for (const auto* flags : {&prefix, &alternate}) {
    Checkpoint ck;
    ck.netlist_fp = fingerprint_netlist(f.low.netlist);
    ck.stimulus_fp = fingerprint_stimulus(f.stim);
    ck.faults_fp = fingerprint_faults(f.faults);
    ck.stimulus_len = f.stim.size();
    ck.finalized = *flags;
    ck.detect_cycle.assign(n, -1);
    std::vector<Fault> unfinished;
    for (std::size_t i = 0; i < n; ++i) {
      if ((*flags)[i])
        ck.detect_cycle[i] = oracle.detect_cycle[i];
      else
        unfinished.push_back(f.faults[i]);
    }
    const std::size_t restored = n - unfinished.size();

    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      const std::string file = path(
          ((flags == &prefix ? "prefix_" : "alternate_") +
           std::to_string(threads))
              .c_str());
      ASSERT_TRUE(save_checkpoint(file, ck));
      CampaignOptions opt;
      opt.num_threads = threads;
      opt.checkpoint_path = file;
      opt.resume = true;
      auto r = run_campaign(f.low.netlist, f.stim, f.faults, opt);
      ASSERT_TRUE(r) << r.error().to_string();
      expect_bit_identical(r->sim);
      EXPECT_EQ(r->resumed_faults, restored);
      FaultSimOptions rest;
      rest.num_threads = threads;
      expect_same_work(
          r->sim.stats,
          simulate_faults(f.low.netlist, f.stim, unfinished, rest).stats);
    }
  }
}

TEST_F(CampaignTest, CancelledCampaignCheckpointsEveryFinalizedFault) {
  // A call cut short records every verdict it reached, not only whole
  // groups of them, and the resume runs exactly the faults left: its
  // work is a one-shot run's over them.
  common::CancelToken token;
  CampaignOptions opt;
  opt.num_threads = 1;
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
  ASSERT_GT(first->sim.finalized_count(), 0u);
  EXPECT_EQ(first->checkpoints_written, 1u);
  auto saved = load_checkpoint(opt.checkpoint_path);
  ASSERT_TRUE(saved) << saved.error().to_string();
  EXPECT_EQ(saved->finalized, first->sim.finalized);
  EXPECT_EQ(saved->detect_cycle, first->sim.detect_cycle);

  std::vector<Fault> unfinished;
  for (std::size_t i = 0; i < fixture().faults.size(); ++i)
    if (!first->sim.finalized[i]) unfinished.push_back(fixture().faults[i]);
  CampaignOptions resume_opt;
  resume_opt.num_threads = 1;
  resume_opt.checkpoint_path = path();
  resume_opt.resume = true;
  auto resumed = run_campaign(fixture().low.netlist, fixture().stim,
                              fixture().faults, resume_opt);
  ASSERT_TRUE(resumed) << resumed.error().to_string();
  expect_bit_identical(resumed->sim);
  EXPECT_EQ(resumed->resumed_faults, first->sim.finalized_count());
  FaultSimOptions rest;
  rest.num_threads = 1;
  expect_same_work(resumed->sim.stats,
                   simulate_faults(fixture().low.netlist, fixture().stim,
                                   unfinished, rest)
                       .stats);
}

TEST_F(CampaignTest, ResumeOfCompletedCampaignIsIdenticalAndRunsNothing) {
  CampaignOptions opt;
  opt.num_threads = 2;
  opt.checkpoint_path = path();
  auto first = run_campaign(fixture().low.netlist, fixture().stim,
                            fixture().faults, opt);
  ASSERT_TRUE(first);
  ASSERT_TRUE(first->sim.complete);

  opt.resume = true;
  auto again = run_campaign(fixture().low.netlist, fixture().stim,
                            fixture().faults, opt);
  ASSERT_TRUE(again);
  EXPECT_EQ(again->resumed_faults, fixture().faults.size());
  EXPECT_EQ(again->checkpoints_written, 0u);
  expect_bit_identical(again->sim);
}

TEST_F(CampaignTest, CampaignCompilesOncePerDesign) {
  // The campaign's one simulate_faults call compiles and records its
  // good trace once for every fault.
  CampaignOptions opt;
  opt.num_threads = 1;
  auto r = run_campaign(fixture().low.netlist, fixture().stim,
                        fixture().faults, opt);
  ASSERT_TRUE(r) << r.error().to_string();
  EXPECT_EQ(r->sim.stats.good_trace_cycles, fixture().stim.size());
  expect_bit_identical(r->sim);
}

TEST_F(CampaignTest, FullyResumedCampaignBuildsNothing) {
  // Every fault comes back from the checkpoint, so nothing runs and the
  // campaign has nothing to prepare for.
  CampaignOptions opt;
  opt.num_threads = 1;
  opt.checkpoint_path = path();
  ASSERT_TRUE(run_campaign(fixture().low.netlist, fixture().stim,
                           fixture().faults, opt));

  opt.resume = true;
  auto r = run_campaign(fixture().low.netlist, fixture().stim,
                        fixture().faults, opt);
  ASSERT_TRUE(r) << r.error().to_string();
  EXPECT_EQ(r->resumed_faults, fixture().faults.size());
  EXPECT_EQ(r->sim.stats.good_trace_cycles, 0u);
  EXPECT_EQ(r->sim.stats.batches, 0u);
  expect_bit_identical(r->sim);
}

TEST_F(CampaignTest, BenchmarkShimsAreInert) {
  // perfbench's own calls into the shim block of
  // fault/schedule_cache.hpp: acquire prepares nothing, names no file,
  // and a campaign handed the cache, its handle and a checkpoint slice
  // size runs exactly as one given none of them, and completes no
  // slice.
  const Fixture& f = fixture();
  ScheduleCache cache(ScheduleCache::Config{path("cache")});
  ArtifactCacheStats stats;
  const auto art = cache.acquire(f.low.netlist, f.stim, f.faults,
                                 gate::PassOptions{}, stats);
  ASSERT_NE(art, nullptr);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.disk_hits, 0u);
  EXPECT_TRUE(cache.entry_path(art->key).empty());

  CampaignOptions plain;
  plain.num_threads = 2;
  plain.checkpoint_path = path("plain.ckpt");
  CampaignOptions shimmed = plain;
  shimmed.checkpoint_path = path("shimmed.ckpt");
  shimmed.schedule_cache = &cache;
  shimmed.artifact = art;
  shimmed.checkpoint_every = 64;
  auto want = run_campaign(f.low.netlist, f.stim, f.faults, plain);
  auto got = run_campaign(f.low.netlist, f.stim, f.faults, shimmed);
  ASSERT_TRUE(want) << want.error().to_string();
  ASSERT_TRUE(got) << got.error().to_string();
  EXPECT_EQ(got->sim.detect_cycle, want->sim.detect_cycle);
  EXPECT_EQ(got->sim.detected, want->sim.detected);
  EXPECT_EQ(got->completed_slices, 0u);
  EXPECT_EQ(want->completed_slices, 0u);
  EXPECT_EQ(got->checkpoints_written, want->checkpoints_written);
  expect_same_work(got->sim.stats, want->sim.stats);
  EXPECT_EQ(got->sim.stats.good_trace_cycles,
            want->sim.stats.good_trace_cycles);
}

TEST_F(CampaignTest, MissingCheckpointWithResumeIsAFreshStart) {
  CampaignOptions opt;
  opt.checkpoint_path = path("never_written.ckpt");
  opt.resume = true;
  auto r = run_campaign(fixture().low.netlist, fixture().stim,
                        fixture().faults, opt);
  ASSERT_TRUE(r) << r.error().to_string();
  EXPECT_EQ(r->resumed_faults, 0u);
  expect_bit_identical(r->sim);
}

Expected<CampaignResult> resume_from(const std::string& file) {
  CampaignOptions opt;
  opt.checkpoint_path = file;
  opt.resume = true;
  return run_campaign(fixture().low.netlist, fixture().stim,
                      fixture().faults, opt);
}

/// Write a complete valid checkpoint for the fixture and return its path.
std::string write_valid_checkpoint(const std::string& file) {
  CampaignOptions opt;
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
  put(digest(bytes), 8);
  ASSERT_EQ(bytes.size(), 93u);
  const std::string file = path();
  write_bytes(file, bytes);

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
  opt.checkpoint_path = path();
  opt.cancel = &token;
  auto r = run_campaign(fixture().low.netlist, fixture().stim,
                        fixture().faults, opt);
  ASSERT_TRUE(r) << r.error().to_string();
  EXPECT_EQ(r->stop_reason, ErrorCode::Cancelled);
  EXPECT_EQ(r->checkpoints_written, 0u);
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
  EXPECT_EQ(loaded->finalized, ck.finalized);
}

} // namespace
} // namespace fdbist::fault
