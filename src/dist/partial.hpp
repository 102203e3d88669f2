// Per-slice partial results: the on-disk unit of distributed work.
//
// A distributed campaign (dist/coordinator.hpp) partitions the fault
// universe into contiguous slices; whichever process finishes a slice —
// a worker or the coordinator running it inline — persists the slice's
// verdicts as a partial-result file, and the coordinator folds every
// valid partial into the final FaultSimResult through the audited
// FaultSimResult::merge. Because a fault's detect cycle is a pure
// function of (netlist, stimulus, fault), any crash schedule that
// eventually produces one valid partial per slice merges to a result
// bit-identical to a single-process run.
//
// File layout, version 2 ("FDBP", native-endian, local artifact).
// Version 2 adds the design family and signature-compaction
// configuration to the header (family is also folded into the
// fault-list fingerprint via UniverseFp) and appends per-fault
// signature verdicts when compaction was on. Version-1 files are
// refused — the coordinator treats them like any other unusable
// partial: delete and recompute the slice.
//
//   offset size  field
//   0      4     magic "FDBP"
//   4      4     u32  format version (= 2)
//   8      8     u64  netlist fingerprint    } over the FULL universe,
//   16     8     u64  stimulus fingerprint   } not the slice — a partial
//   24     8     u64  fault-list fingerprint } from a foreign campaign
//   32     8     u64  total fault count        must never merge in
//   40     8     u64  stimulus length (vectors)
//   48     8     u64  slice start (lo)
//   56     8     u64  slice fault count
//   64     4     u32  design family (rtl::DesignFamily)
//   68     4     u32  signature MISR width (0 = no compaction)
//   72     4     u32  signature feedback taps
//   76     4     u32  reserved (0)
//   80     4*N   i32  detect_cycle[count] (every entry finalized)
//   ...    N     u8   signature_detect[count]  (width > 0 only)
//   end-8  8     u64  FNV-1a checksum of every preceding byte
//
// Saves go through common/atomic_file.hpp (failpoint prefix "partial");
// loads validate structure + checksum with typed errors, and the
// coordinator treats a corrupt partial as a retryable event (delete,
// re-queue the slice), not a campaign failure.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "fault/simulator.hpp"

namespace fdbist::fault {
class ScheduleCache; // fault/schedule_cache.hpp
}

namespace fdbist::dist {

inline constexpr std::uint32_t kPartialVersion = 2;

/// Fingerprints of everything verdicts depend on, computed once per
/// process over the FULL campaign universe. The design family is part
/// of the identity: two families whose structural fingerprints happened
/// to coincide must still never mix verdict files.
struct UniverseFp {
  std::uint64_t netlist = 0;
  std::uint64_t stimulus = 0;
  std::uint64_t faults = 0;
  std::uint32_t family = 0; ///< rtl::DesignFamily as u32

  bool operator==(const UniverseFp&) const = default;
};

UniverseFp fingerprint_universe(const gate::Netlist& nl,
                                std::span<const std::int64_t> stimulus,
                                std::span<const fault::Fault> faults,
                                std::uint32_t family = 0);

struct SlicePartial {
  UniverseFp fp;
  std::uint64_t total_faults = 0;
  std::uint64_t vectors = 0;
  std::uint64_t lo = 0;
  /// Signature-compaction configuration (0/0 = word compare only).
  std::uint32_t sig_width = 0;
  std::uint32_t sig_taps = 0;
  /// Verdicts for faults [lo, lo + detect_cycle.size()); all finalized.
  std::vector<std::int32_t> detect_cycle;
  /// Per-fault signature verdicts; sized like detect_cycle iff
  /// sig_width > 0.
  std::vector<std::uint8_t> signature_detect;
};

/// Canonical file names inside a campaign scratch directory.
std::string partial_path(const std::string& dir, std::size_t slice);
std::string slice_checkpoint_path(const std::string& dir, std::size_t slice);

/// Atomically persist / load one partial. Loads return Io for
/// filesystem trouble and CorruptCheckpoint for malformed content.
Expected<void> save_partial(const std::string& path, const SlicePartial& p);
Expected<SlicePartial> load_partial(const std::string& path);

/// Audit a loaded partial against the live campaign geometry:
/// FingerprintMismatch for a foreign universe (or a signature
/// configuration differing from `sig`), CorruptCheckpoint for a window
/// that does not match slice `lo`/`count`.
Expected<void> validate_partial(const SlicePartial& p, const UniverseFp& fp,
                                std::size_t total_faults, std::size_t vectors,
                                std::size_t lo, std::size_t count,
                                const fault::SignatureOptions& sig = {});

/// Fold a partial into the merged result via FaultSimResult::merge.
Expected<void> merge_partial(fault::FaultSimResult& into,
                             const SlicePartial& p);

struct SliceComputeOptions {
  std::size_t num_threads = 1;
  fault::FaultSimEngine engine = fault::FaultSimEngine::Auto;
  common::SimdBackend simd = common::SimdBackend::Auto;
  /// Design family tag recorded in slice checkpoints (the partial
  /// itself carries it inside UniverseFp).
  std::uint32_t family = 0;
  /// Response compaction; verdict-affecting, so recorded in both the
  /// slice checkpoint and the partial.
  fault::SignatureOptions signature;
  /// Within-slice checkpoint granularity; 0 = one checkpoint per slice.
  std::size_t checkpoint_every = 0;
  /// Prebuilt compiled artifact for the FULL campaign universe
  /// (fault/schedule_cache.hpp), acquired once per process and forwarded
  /// to every slice this process computes — a respawned worker loads it
  /// from the on-disk cache instead of recompiling per slice.
  std::shared_ptr<const fault::CompiledArtifact> artifact;
  const common::CancelToken* cancel = nullptr;
  /// Called with (faults finalized in this slice, slice fault count) as
  /// the underlying campaign advances — the worker's lease heartbeat.
  std::function<void(std::size_t, std::size_t)> progress;
};

/// Run one slice through the campaign machinery (checkpointing to
/// slice_checkpoint_path, resuming any earlier attempt's progress; an
/// unusable slice checkpoint — foreign fingerprints or a different
/// granularity — is deleted and the slice recomputed from scratch) and
/// persist the partial. Returns Cancelled/DeadlineExceeded as errors —
/// an unfinished slice writes no partial, its checkpoint carries the
/// progress. The "corrupt-result" failpoint (common/failpoint.hpp,
/// `corrupt` action) flips a payload byte in the saved file, which the
/// load-side checksum must catch.
Expected<void> compute_and_save_slice(const gate::Netlist& nl,
                                      std::span<const std::int64_t> stimulus,
                                      std::span<const fault::Fault> faults,
                                      const UniverseFp& fp,
                                      const std::string& dir,
                                      std::size_t slice, std::size_t lo,
                                      std::size_t count,
                                      const SliceComputeOptions& opt);

} // namespace fdbist::dist
