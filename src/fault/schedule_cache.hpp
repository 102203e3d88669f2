// Compiled artifact: a cell's preparation, built once in memory and
// shared.
//
// Every simulate_faults call that runs the compiled engine pays a fixed
// preparation bill before the first batch: schedule compilation and a
// full fault-free good-trace recording. A CompiledArtifact is that
// state as one immutable, shareable bundle — the netlist, the
// CompiledSchedule and the full-budget bit-packed good trace. Handed to
// simulate_faults via FaultSimOptions::artifact, it replaces the
// compile + trace-record steps wholesale. Nothing in it depends on
// which faults a run simulates, so every fault universe, slice and
// execution shape of the cell reuses it bit-identically.
//
// A caller that runs one cell several times may build an artifact once
// and hand it to each call; run_campaign forwards a caller's artifact to
// its one simulate_faults call and builds none itself. Artifacts live
// in memory only: on the paper's cells a build takes 5-11 ms, and
// loading a stored copy cost as much, because the file is mostly the
// trace (DESIGN.md §14).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>

#include "fault/fault.hpp"
#include "fault/simulator.hpp"
#include "gate/schedule.hpp"

namespace fdbist::fault {

/// Artifact identity: the fingerprints (fault/checkpoint.hpp) of the
/// netlist and the stimulus it was built for. simulate_faults refuses
/// an artifact whose key does not match its own arguments. The key is
/// deliberately free of the fault universe, lane width and thread
/// count: one artifact serves every universe, slice and backend at any
/// parallelism.
struct ArtifactKey {
  std::uint64_t netlist_fp = 0;
  std::uint64_t stimulus_fp = 0;

  bool operator==(const ArtifactKey&) const = default;
};

ArtifactKey make_artifact_key(const gate::Netlist& nl,
                              std::span<const std::int64_t> stimulus);

/// The reusable preparation state. Immutable after build; shared
/// read-only across calls and threads via
/// shared_ptr<const CompiledArtifact>. Never copied or moved — the
/// schedule holds a reference into this object's own netlist.
struct CompiledArtifact {
  ArtifactKey key;

  /// Structural copy of the keyed netlist (origin-free — the kernel
  /// never reads origins, and reporting uses the caller's netlist), so
  /// a shared handle never depends on the caller's netlist outliving
  /// it.
  gate::Netlist netlist;
  /// Good-machine trace over the full stimulus. Batch kernels read the
  /// rows of their windows, so the one trace serves every pass.
  gate::GoodTrace trace;

  /// Compiled over `netlist`; emplaced last, after the netlist member
  /// has its final address.
  std::optional<gate::CompiledSchedule> schedule;

  CompiledArtifact() = default;
  CompiledArtifact(const CompiledArtifact&) = delete;
  CompiledArtifact& operator=(const CompiledArtifact&) = delete;
};

/// Build an artifact: copy the netlist, compile, record the full-budget
/// trace. When `prep` is set, the build is booked there the way
/// simulate_faults books its own preparation: prep_compile_ns (netlist
/// copy and compile), prep_trace_ns, one schedule compilation and
/// stimulus.size() good-trace cycles. Precondition: non-empty stimulus.
std::shared_ptr<const CompiledArtifact> build_artifact(
    const gate::Netlist& nl, std::span<const std::int64_t> stimulus,
    FaultSimStats* prep = nullptr);

} // namespace fdbist::fault

// ---- Benchmark shims: remove with the next benchmark change ------------
//
// perfbench/perfbench.cpp compiles against these names. None of them
// stores anything: acquire builds a fresh artifact on every call, and
// entry_path names no file. The next benchmark change drops this whole
// block, CampaignOptions::schedule_cache and perfbench's cache.*
// metrics together.

namespace fdbist::gate {

/// Empty stand-in for the removed netlist-pass options.
struct PassOptions {};

} // namespace fdbist::gate

namespace fdbist::fault {

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

  std::shared_ptr<const CompiledArtifact> acquire(
      const gate::Netlist& nl, std::span<const std::int64_t> stimulus,
      std::span<const Fault>, const gate::PassOptions&,
      ArtifactCacheStats& stats) {
    ++stats.misses;
    return build_artifact(nl, stimulus);
  }

  /// Always empty: no file is stored.
  std::string entry_path(const ArtifactKey&) const { return {}; }
};

} // namespace fdbist::fault
