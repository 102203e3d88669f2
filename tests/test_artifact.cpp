// Compiled-artifact (FDBA) format and ScheduleCache: round-trips must
// be bit-identical to scratch compilation, every damaged file —
// truncated, bit-flipped, wrong-version, wrong-fingerprint, failpoint-
// torn — must be refused with a typed error, and the cache must fall
// back to recompilation with bit-identical results (a bad cache entry
// can cost time, never correctness). The concurrency suite is the TSan
// target for the in-memory LRU.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "common/failpoint.hpp"
#include "common/fingerprint.hpp"
#include "fault/campaign.hpp"
#include "fault/checkpoint.hpp"
#include "fault/schedule_cache.hpp"
#include "gate/artifact.hpp"
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

/// A structurally different universe for wrong-fingerprint tests.
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

/// Re-stamp the trailing FNV-1a checksum after deliberately patching a
/// header field, so the damage under test is the field, not the sum.
void restamp_checksum(std::vector<std::uint8_t>& bytes) {
  ASSERT_GE(bytes.size(), 8u);
  const std::uint64_t h =
      common::fnv1a(common::kFnvSeed, bytes.data(), bytes.size() - 8);
  for (int i = 0; i < 8; ++i)
    bytes[bytes.size() - 8 + std::size_t(i)] =
        std::uint8_t(h >> (8 * i)); // LE, matching common/binfile.hpp
}

class ArtifactTest : public ::testing::Test {
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
  void TearDown() override {
    (void)common::failpoint_configure("");
    std::filesystem::remove_all(dir_);
  }
  std::filesystem::path dir_;
};

using ArtifactFormat = ArtifactTest;
using ArtifactCache = ArtifactTest;

// ---------------------------------------------------------------------------
// Format round-trip and damage refusal.

TEST_F(ArtifactFormat, RoundTripBitIdentical) {
  const auto& f = fixture();
  const auto art = build_artifact(f.low.netlist, f.stim);
  ASSERT_NE(art, nullptr);
  const auto bytes = serialize_artifact(*art);
  auto back = deserialize_artifact(bytes, art->key);
  ASSERT_TRUE(back) << back.error().to_string();

  EXPECT_EQ((*back)->key, art->key);
  EXPECT_EQ(fingerprint_netlist((*back)->netlist),
            fingerprint_netlist(art->netlist));

  const auto scratch = scratch_result(f);
  const auto cached = artifact_result(f, *back);
  EXPECT_EQ(cached.detect_cycle, scratch.detect_cycle);
  EXPECT_EQ(cached.detected, scratch.detected);
  // The warm path must do zero preparation work of its own.
  EXPECT_EQ(cached.stats.schedule_compilations, 0u);
  EXPECT_EQ(cached.stats.good_trace_cycles, 0u);
}

TEST_F(ArtifactFormat, SliceSubsetBitIdentical) {
  // Any contiguous slice of the keyed universe may reuse the
  // full-universe artifact: nothing in it depends on the faults a run
  // simulates.
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

TEST_F(ArtifactFormat, TruncationRefused) {
  const auto& f = fixture();
  const auto art = build_artifact(f.low.netlist, f.stim);
  const auto bytes = serialize_artifact(*art);
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{3}, std::size_t{11}, bytes.size() / 4,
        bytes.size() / 2, bytes.size() - 9, bytes.size() - 1}) {
    std::vector<std::uint8_t> cut(bytes.begin(),
                                  bytes.begin() + std::ptrdiff_t(keep));
    auto r = deserialize_artifact(cut, art->key);
    ASSERT_FALSE(r) << "accepted a " << keep << "-byte prefix";
    EXPECT_EQ(r.error().code, ErrorCode::CorruptArtifact) << keep;
  }
}

TEST_F(ArtifactFormat, BitFlipRefused) {
  const auto& f = fixture();
  const auto art = build_artifact(f.low.netlist, f.stim);
  const auto bytes = serialize_artifact(*art);
  // Sample positions across every section, including the checksum.
  for (std::size_t pos = 0; pos < bytes.size();
       pos += 1 + bytes.size() / 13) {
    auto bad = bytes;
    bad[pos] ^= 0x40;
    auto r = deserialize_artifact(bad, art->key);
    ASSERT_FALSE(r) << "accepted a flip at byte " << pos;
    EXPECT_EQ(r.error().code, ErrorCode::CorruptArtifact) << pos;
  }
}

TEST_F(ArtifactFormat, WrongContainerVersionRefused) {
  const auto& f = fixture();
  const auto art = build_artifact(f.low.netlist, f.stim);
  // Versions 1 and 2 are retired layouts (v1 stored a pass
  // configuration, retarget map and fault sections; v2 keyed the file
  // on the fault universe); the cache deletes and rebuilds a refused
  // file.
  for (const std::uint8_t version : {1, 2, 99}) {
    auto bytes = serialize_artifact(*art);
    bytes[4] = version; // u32 container version, little-endian low byte
    restamp_checksum(bytes);
    auto r = deserialize_artifact(bytes, art->key);
    ASSERT_FALSE(r) << "accepted version " << int(version);
    EXPECT_EQ(r.error().code, ErrorCode::CorruptArtifact);
  }
}

TEST_F(ArtifactFormat, WrongScheduleFormatRefused) {
  // A schedule-format bump must invalidate stale artifacts: the header
  // is intact (checksum restamped), but the key no longer matches.
  const auto& f = fixture();
  const auto art = build_artifact(f.low.netlist, f.stim);
  auto bytes = serialize_artifact(*art);
  bytes[8] = std::uint8_t(gate::kScheduleFormatVersion + 1);
  restamp_checksum(bytes);
  auto r = deserialize_artifact(bytes, art->key);
  ASSERT_FALSE(r);
  EXPECT_EQ(r.error().code, ErrorCode::FingerprintMismatch);
}

TEST_F(ArtifactFormat, WrongFingerprintRefused) {
  // A valid artifact for one universe presented under another key —
  // e.g. a cache file renamed or hash-colliding — must be refused.
  const auto& f = fixture();
  const auto& g = other_fixture();
  const auto art = build_artifact(f.low.netlist, f.stim);
  const std::string path = (dir_ / "foreign.fdba").string();
  ASSERT_TRUE(save_artifact(path, *art));
  const auto foreign_key = make_artifact_key(g.low.netlist, g.stim);
  auto r = load_artifact(path, foreign_key);
  ASSERT_FALSE(r);
  EXPECT_EQ(r.error().code, ErrorCode::FingerprintMismatch);
}

TEST_F(ArtifactFormat, SaveLoadThroughDisk) {
  const auto& f = fixture();
  const auto art = build_artifact(f.low.netlist, f.stim);
  const std::string path = (dir_ / "a.fdba").string();
  ASSERT_TRUE(save_artifact(path, *art));
  auto back = load_artifact(path, art->key);
  ASSERT_TRUE(back) << back.error().to_string();
  const auto scratch = scratch_result(f);
  const auto cached = artifact_result(f, *back);
  EXPECT_EQ(cached.detect_cycle, scratch.detect_cycle);
}

// ---------------------------------------------------------------------------
// ScheduleCache: hits, persistence, failpoint fallback.

TEST_F(ArtifactCache, MemoryThenDiskHits) {
  const auto& f = fixture();
  ScheduleCache::Config cfg;
  cfg.dir = dir_.string();
  ScheduleCache cache(cfg);
  ArtifactCacheStats s1, s2;
  const auto a1 = cache.acquire(f.low.netlist, f.stim, s1);
  ASSERT_NE(a1, nullptr);
  EXPECT_EQ(s1.misses, 1u);
  const auto a2 = cache.acquire(f.low.netlist, f.stim, s2);
  EXPECT_EQ(a2.get(), a1.get()); // the same shared immutable object
  EXPECT_EQ(s2.mem_hits, 1u);
  EXPECT_EQ(s2.misses, 0u);

  // A NEW instance over the same directory — the fresh-process shape —
  // must come back through the FDBA file, not a rebuild.
  ScheduleCache fresh(cfg);
  ArtifactCacheStats s3;
  const auto a3 = fresh.acquire(f.low.netlist, f.stim, s3);
  ASSERT_NE(a3, nullptr);
  EXPECT_EQ(s3.disk_hits, 1u);
  EXPECT_EQ(s3.misses, 0u);
  EXPECT_EQ(artifact_result(f, a3).detect_cycle,
            scratch_result(f).detect_cycle);
}

TEST_F(ArtifactCache, CorruptFileFallsBackToRebuild) {
  const auto& f = fixture();
  ScheduleCache::Config cfg;
  cfg.dir = dir_.string();
  {
    ScheduleCache warmup(cfg);
    ArtifactCacheStats s;
    ASSERT_NE(warmup.acquire(f.low.netlist, f.stim, s), nullptr);
  }
  // Physically corrupt the stored file (not just the failpoint): the
  // load must refuse it, delete it, rebuild, and re-save.
  const auto key = make_artifact_key(f.low.netlist, f.stim);
  ScheduleCache cache(cfg);
  const std::string path = cache.entry_path(key);
  {
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.is_open());
    file.seekp(128);
    file.put('\x7f');
  }
  ArtifactCacheStats s;
  const auto art = cache.acquire(f.low.netlist, f.stim, s);
  ASSERT_NE(art, nullptr);
  EXPECT_EQ(s.load_failures, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(artifact_result(f, art).detect_cycle,
            scratch_result(f).detect_cycle);
  // The rebuild re-saved a good file; a fresh instance loads it.
  ScheduleCache fresh(cfg);
  ArtifactCacheStats s2;
  ASSERT_NE(fresh.acquire(f.low.netlist, f.stim, s2), nullptr);
  EXPECT_EQ(s2.disk_hits, 1u);
}

TEST_F(ArtifactCache, LoadCorruptFailpointFallsBack) {
  const auto& f = fixture();
  ScheduleCache::Config cfg;
  cfg.dir = dir_.string();
  {
    ScheduleCache warmup(cfg);
    ArtifactCacheStats s;
    ASSERT_NE(warmup.acquire(f.low.netlist, f.stim, s), nullptr);
  }
  ASSERT_TRUE(common::failpoint_configure("artifact-load-corrupt=corrupt"));
  ScheduleCache cache(cfg);
  ArtifactCacheStats s;
  const auto art = cache.acquire(f.low.netlist, f.stim, s);
  ASSERT_NE(art, nullptr);
  EXPECT_EQ(s.load_failures, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(artifact_result(f, art).detect_cycle,
            scratch_result(f).detect_cycle);
}

TEST_F(ArtifactCache, SaveErrorFailpointAbsorbed) {
  const auto& f = fixture();
  ASSERT_TRUE(common::failpoint_configure("artifact-save-error=error"));
  ScheduleCache::Config cfg;
  cfg.dir = dir_.string();
  ScheduleCache cache(cfg);
  ArtifactCacheStats s;
  const auto art = cache.acquire(f.low.netlist, f.stim, s);
  ASSERT_NE(art, nullptr); // the cache is an accelerator, never a dependency
  EXPECT_EQ(s.misses, 1u);
  const auto key = make_artifact_key(f.low.netlist, f.stim);
  EXPECT_FALSE(std::filesystem::exists(cache.entry_path(key)));
  EXPECT_EQ(artifact_result(f, art).detect_cycle,
            scratch_result(f).detect_cycle);
}

// ---------------------------------------------------------------------------
// Campaign amortization: many slices, one compilation.

TEST_F(ArtifactCache, CampaignCompilesOncePerDesign) {
  const auto& f = fixture();
  CampaignOptions base;
  base.num_threads = 1;
  // ~10 slices: the acceptance shape (>= 8) from ISSUE 9.
  base.checkpoint_every = (f.faults.size() + 9) / 10;
  const std::size_t slices =
      (f.faults.size() + base.checkpoint_every - 1) / base.checkpoint_every;
  ASSERT_GE(slices, 8u);

  auto uncached = run_campaign(f.low.netlist, f.stim, f.faults, base);
  ASSERT_TRUE(uncached);
  EXPECT_EQ(uncached->sim.stats.schedule_compilations, slices);

  ScheduleCache::Config cfg;
  cfg.dir = dir_.string();
  ScheduleCache cache(cfg);
  CampaignOptions copt = base;
  copt.schedule_cache = &cache;
  auto cached = run_campaign(f.low.netlist, f.stim, f.faults, copt);
  ASSERT_TRUE(cached);
  EXPECT_EQ(cached->completed_slices, slices);
  EXPECT_EQ(cached->sim.stats.schedule_compilations, 1u);
  EXPECT_EQ(cached->sim.stats.artifact_misses, 1u);
  EXPECT_EQ(cached->sim.detect_cycle, uncached->sim.detect_cycle);
  EXPECT_EQ(cached->sim.detected, uncached->sim.detected);

  // A warm re-run compiles nothing at all.
  auto warm = run_campaign(f.low.netlist, f.stim, f.faults, copt);
  ASSERT_TRUE(warm);
  EXPECT_EQ(warm->sim.stats.schedule_compilations, 0u);
  EXPECT_EQ(warm->sim.stats.artifact_mem_hits, 1u);
  EXPECT_EQ(warm->sim.detect_cycle, uncached->sim.detect_cycle);
}

// ---------------------------------------------------------------------------
// Concurrency: the TSan target for the LRU (ci tsan job runs this
// binary under -fsanitize=thread).

TEST(ArtifactCacheConcurrency, ConcurrentAcquireWithEvictions) {
  const auto& f = fixture();
  const auto& g = other_fixture();
  // Budget fits either artifact alone but not both, so alternating
  // acquires keep evicting — the LRU bookkeeping is constantly churned
  // while other threads read it.
  const auto a = build_artifact(f.low.netlist, f.stim);
  const auto b = build_artifact(g.low.netlist, g.stim);
  ScheduleCache::Config cfg; // memory-only: dir stays empty
  cfg.mem_budget_bytes = std::max(a->memory_bytes(), b->memory_bytes()) +
                         std::min(a->memory_bytes(), b->memory_bytes()) / 2;
  ScheduleCache cache(cfg);

  constexpr int kThreads = 4;
  constexpr int kIters = 16;
  std::vector<ArtifactCacheStats> stats(kThreads);
  std::vector<int> failures(kThreads, 0);
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const Fixture& fx = (i + t) % 2 == 0 ? f : g;
        const auto art = cache.acquire(fx.low.netlist, fx.stim, stats[t]);
        if (art == nullptr ||
            art->key != make_artifact_key(fx.low.netlist, fx.stim))
          ++failures[t];
      }
    });
  }
  for (auto& th : pool) th.join();

  std::uint64_t acquired = 0, evictions = 0;
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[t], 0) << "thread " << t;
    acquired += stats[t].mem_hits + stats[t].disk_hits + stats[t].misses;
    evictions += stats[t].evictions;
  }
  EXPECT_EQ(acquired, std::uint64_t(kThreads) * kIters);
  EXPECT_GT(evictions, 0u);
  EXPECT_LE(cache.resident_bytes(), cfg.mem_budget_bytes);
  EXPECT_GE(cache.resident_entries(), 1u);
}

} // namespace
} // namespace fdbist::fault
