// ---- Benchmark shims: remove with the next benchmark change ------------
//
// perfbench/perfbench.cpp compiles against these names. None of them
// does anything: acquire prepares nothing and hands back an empty
// handle, entry_path names no file, and run_campaign ignores the handle
// (CampaignOptions::artifact). Every simulate_faults call compiles its
// own schedule and records its own good trace. The next benchmark
// change drops this whole block, CampaignOptions::{schedule_cache,
// artifact} and perfbench's cache.* metrics together.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "fault/fault.hpp"

namespace fdbist::gate {

/// Empty stand-in for the removed netlist-pass options.
struct PassOptions {};

} // namespace fdbist::gate

namespace fdbist::fault {

/// Empty stand-in for the removed artifact identity.
struct ArtifactKey {};

/// Empty stand-in for the removed compiled artifact.
struct CompiledArtifact {
  ArtifactKey key;
};

struct ArtifactCacheStats {
  std::uint64_t misses = 0;    ///< one per acquire
  std::uint64_t disk_hits = 0; ///< always 0
};

class ScheduleCache {
public:
  struct Config {
    std::string dir; ///< unused
  };

  explicit ScheduleCache(Config) {}

  /// Counts one miss and returns a non-null empty handle.
  std::shared_ptr<const CompiledArtifact> acquire(
      const gate::Netlist&, std::span<const std::int64_t>,
      std::span<const Fault>, const gate::PassOptions&,
      ArtifactCacheStats& stats) {
    ++stats.misses;
    return std::make_shared<CompiledArtifact>();
  }

  /// Always empty: no file is stored.
  std::string entry_path(const ArtifactKey&) const { return {}; }
};

} // namespace fdbist::fault
