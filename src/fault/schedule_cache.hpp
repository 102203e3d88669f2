// Compiled-artifact cache: compile once, simulate everywhere.
//
// Every simulate_faults call that runs the compiled engine pays a fixed
// preparation bill before the first batch: schedule compilation and a
// full fault-free good-trace recording. A campaign with S slices pays
// it S times, and every repeat run of the same cell pays it again. This
// cache collapses all of that to once per (design, stimulus):
//
//   * CompiledArtifact — an immutable, shareable bundle of the netlist,
//     the CompiledSchedule, and the full-budget bit-packed good trace.
//     Handed to simulate_faults via FaultSimOptions::artifact, it
//     replaces the compile + trace-record steps wholesale. Nothing in
//     it depends on which faults a run simulates, so every fault
//     universe, slice and execution shape of the cell reuses it
//     bit-identically.
//
//   * ScheduleCache — a thread-safe in-memory LRU with a byte budget,
//     optionally backed by an on-disk content-addressed store of FDBA
//     files so repeat runs in fresh processes load instead of
//     recompiling. Configure the directory with --schedule-cache DIR
//     or FDBIST_SCHEDULE_CACHE.
//
// FDBA layout, version 3, in the common frame of common/binfile.hpp
// (all integers little-endian):
//
//   offset size  field
//   0      4     magic "FDBA"
//   4      4     u32  container version (= kArtifactVersion)
//   8      4     u32  schedule format version (gate::kScheduleFormatVersion)
//   12     8     u64  netlist fingerprint  } the ArtifactKey
//   20     8     u64  stimulus fingerprint }
//   28     8     u64  stimulus length (vectors; the trace covers all)
//   36     ...   sections (gate/artifact.hpp): netlist, schedule arrays,
//                good trace
//   end-8  8     u64  FNV-1a checksum of every preceding byte
//
// A file of any other container version is refused as CorruptArtifact
// and rebuilt.
//
// Failure containment: a torn, truncated, corrupt, wrong-version or
// wrong-fingerprint cache file is refused with a typed error
// (CorruptArtifact / FingerprintMismatch), counted in the stats, and
// the artifact is rebuilt from scratch — a bad cache entry can cost
// time, never correctness. Saves go through common/atomic_file with the
// "artifact" failpoint prefix; the "artifact-load-corrupt" and
// "artifact-save-error" failpoints inject read/write failures for the
// warm-cache smoke and the artifact tests.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/error.hpp"
#include "fault/fault.hpp"
#include "fault/simulator.hpp"
#include "gate/artifact.hpp"
#include "gate/schedule.hpp"

namespace fdbist::gate {

/// Empty stand-in for the removed netlist-pass options, kept only so
/// the perfbench harness's acquire(nl, stimulus, faults,
/// gate::PassOptions{}, stats) call still compiles. The next benchmark
/// change drops it together with the forwarding acquire overload.
struct PassOptions {};

} // namespace fdbist::gate

namespace fdbist::fault {

inline constexpr std::uint32_t kArtifactVersion = 3;

/// Cache identity: everything the prepared state depends on. The
/// fingerprints cover the netlist and the stimulus (fault/checkpoint.hpp
/// hashes); schedule_format pins the compilation semantics so a
/// kernel-side format bump invalidates every stale artifact. The key is
/// deliberately free of the fault universe, lane width and thread
/// count: one artifact serves every universe, slice and backend at any
/// parallelism.
struct ArtifactKey {
  std::uint64_t netlist_fp = 0;
  std::uint64_t stimulus_fp = 0;
  std::uint32_t schedule_format = gate::kScheduleFormatVersion;

  bool operator==(const ArtifactKey&) const = default;
  /// FNV-1a over the fields — both the hash-map hash and the on-disk
  /// content address.
  std::uint64_t hash() const;
};

ArtifactKey make_artifact_key(const gate::Netlist& nl,
                              std::span<const std::int64_t> stimulus);

/// The reusable preparation state. Immutable after build; shared
/// read-only across slices, threads and campaign layers via
/// shared_ptr<const CompiledArtifact>. Never copied or moved — the
/// schedule holds a reference into this object's own netlist.
struct CompiledArtifact {
  ArtifactKey key;
  std::uint64_t stimulus_len = 0; ///< trace cycle count

  /// Structural copy of the keyed netlist (origin-free — the kernel
  /// never reads origins, and reporting uses the caller's netlist).
  gate::Netlist netlist;
  /// Good-machine trace over the full stimulus. Batch kernels only read
  /// row prefixes, so the same trace serves the stage-1 weed-out budget
  /// and the full-budget stage.
  gate::GoodTrace trace;

  /// Compiled over `netlist`; emplaced last, after the netlist member
  /// has its final address.
  std::optional<gate::CompiledSchedule> schedule;

  CompiledArtifact() = default;
  CompiledArtifact(const CompiledArtifact&) = delete;
  CompiledArtifact& operator=(const CompiledArtifact&) = delete;

  /// Approximate resident size, used for the LRU byte budget.
  std::size_t memory_bytes() const;
};

/// Cache observability, accumulated per acquire by the caller and
/// folded into FaultSimStats (fold_cache_stats) so the CLI and bench
/// report hits/misses and load-vs-compile time next to the engine
/// counters.
struct ArtifactCacheStats {
  std::uint64_t mem_hits = 0;
  std::uint64_t disk_hits = 0;
  std::uint64_t misses = 0;    ///< artifact built from scratch
  std::uint64_t evictions = 0; ///< LRU entries dropped for the budget
  std::uint64_t load_failures = 0; ///< unusable cache files refused
  std::uint64_t load_ns = 0;  ///< deserializing + validating FDBA files
  std::uint64_t build_ns = 0; ///< compile + trace on misses
  std::uint64_t save_ns = 0;  ///< serializing + atomic write
};

void fold_cache_stats(const ArtifactCacheStats& s, FaultSimStats& into);

/// Build an artifact from scratch (no cache involved): copy the
/// netlist, compile, record the full-budget trace. Precondition:
/// non-empty stimulus.
std::shared_ptr<const CompiledArtifact> build_artifact(
    const gate::Netlist& nl, std::span<const std::int64_t> stimulus);

/// FDBA (de)serialization. deserialize validates the frame, the header
/// identity against `expect` (FingerprintMismatch when it was written
/// for a different design, stimulus or schedule format), and every
/// section's internal structure (CorruptArtifact). save_artifact writes
/// atomically with the "artifact" failpoint prefix.
std::vector<std::uint8_t> serialize_artifact(const CompiledArtifact& art);
Expected<std::shared_ptr<const CompiledArtifact>> deserialize_artifact(
    std::span<const std::uint8_t> bytes, const ArtifactKey& expect);
Expected<void> save_artifact(const std::string& path,
                             const CompiledArtifact& art);
Expected<std::shared_ptr<const CompiledArtifact>> load_artifact(
    const std::string& path, const ArtifactKey& expect);

class ScheduleCache {
public:
  struct Config {
    /// On-disk store directory (created on first save); empty keeps the
    /// cache memory-only.
    std::string dir;
    /// In-memory LRU byte budget. An artifact larger than the whole
    /// budget is still returned to the caller, just not retained.
    std::size_t mem_budget_bytes = std::size_t{256} << 20;
  };

  explicit ScheduleCache(Config cfg);

  /// Look up or build the artifact for (nl, stimulus): memory LRU
  /// first, then the disk store, then a scratch build (which also
  /// populates both). Returns nullptr — caller falls back to the
  /// uncached path — when the stimulus is empty or the good trace alone
  /// would exceed the compiled engine's memory cap (the engine would
  /// auto-select FullSweep there anyway). Thread-safe; `stats`
  /// accumulates what happened.
  std::shared_ptr<const CompiledArtifact> acquire(
      const gate::Netlist& nl, std::span<const std::int64_t> stimulus,
      ArtifactCacheStats& stats);

  /// Shim for the perfbench harness's call shape (see gate::PassOptions
  /// above); forwards to acquire(nl, stimulus, stats). The next
  /// benchmark change drops it.
  std::shared_ptr<const CompiledArtifact> acquire(
      const gate::Netlist& nl, std::span<const std::int64_t> stimulus,
      std::span<const Fault>, const gate::PassOptions&,
      ArtifactCacheStats& stats) {
    return acquire(nl, stimulus, stats);
  }

  /// Content-addressed file for a key: "<dir>/fdba-<hex key hash>.fdba".
  std::string entry_path(const ArtifactKey& key) const;

  const Config& config() const { return cfg_; }
  std::size_t resident_bytes() const;
  std::size_t resident_entries() const;

  /// FDBIST_SCHEDULE_CACHE, or empty when unset.
  static std::string env_dir();

private:
  struct Entry {
    std::shared_ptr<const CompiledArtifact> art;
    std::size_t bytes = 0;
    std::list<ArtifactKey>::iterator lru_it;
  };
  struct KeyHasher {
    std::size_t operator()(const ArtifactKey& k) const {
      return std::size_t(k.hash());
    }
  };

  std::shared_ptr<const CompiledArtifact> lookup_locked(
      const ArtifactKey& key);
  void insert(const std::shared_ptr<const CompiledArtifact>& art,
              ArtifactCacheStats& stats);

  Config cfg_;
  mutable std::mutex mu_;
  std::list<ArtifactKey> lru_; ///< front = most recently used
  std::unordered_map<ArtifactKey, Entry, KeyHasher> map_;
  std::size_t bytes_ = 0;
};

} // namespace fdbist::fault
