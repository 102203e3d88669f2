// Robust long-running fault-simulation campaigns.
//
// The paper's experiment grid (Tables 4-6, Figures 10-13) is ~50-57k
// adder faults × 4k vectors per (design, generator) pair — hours of
// simulation where a killed process used to lose everything. The
// campaign layer wraps fault::simulate_faults with the three
// resilience properties those sweeps need:
//
//   * Checkpointing. The fault universe is partitioned into fixed-size
//     slices (checkpoint_every faults). Each finished slice's verdicts
//     are final — a fault's detect cycle is a pure function of
//     (netlist, stimulus, fault), independent of slicing — so the
//     campaign persists them to a versioned checkpoint file
//     (fault/checkpoint.hpp) and a resumed run skips straight to the
//     first unfinished slice. Final results are bit-identical to an
//     uninterrupted run, for any thread count.
//
//   * Cancellation + deadline. A caller-owned CancelToken and/or a
//     wall-clock budget stop workers at batch boundaries (lanes-1
//     faults per batch, per the resolved SIMD backend).
//     The partial result is returned (coverage-so-far, per-fault
//     finalized flags), never discarded, and stop_reason says why.
//
//   * Structured errors. Filesystem trouble and unusable checkpoints
//     surface as Expected errors with machine-checkable codes — Io,
//     CorruptCheckpoint, FingerprintMismatch — instead of crashes. A
//     checkpoint written by a different design, stimulus, fault list,
//     or slice geometry is refused, not silently mixed in.
#pragma once

#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "fault/simulator.hpp"

namespace fdbist::fault {

class ScheduleCache; // fault/schedule_cache.hpp

struct CampaignOptions {
  /// Worker threads per slice (same contract as FaultSimOptions).
  std::size_t num_threads = 0;

  /// Simulation engine per slice (same contract as FaultSimOptions).
  /// Deliberately NOT part of the checkpoint fingerprint: verdicts are a
  /// pure function of (netlist, stimulus, fault), so a campaign may be
  /// resumed under a different engine than the one that wrote the
  /// checkpoint and the merged result stays bit-identical.
  FaultSimEngine engine = FaultSimEngine::Auto;

  /// SIMD backend per slice (same contract as FaultSimOptions). Like
  /// `engine`, NOT part of the checkpoint fingerprint: verdicts are
  /// width-independent, so a campaign checkpointed at one lane width
  /// resumes bit-identically at another.
  common::SimdBackend simd = common::SimdBackend::Auto;

  /// Design family the fault universe was built from
  /// (rtl::DesignFamily as u32). Unlike engine/simd this IS part
  /// of the checkpoint audit: two families can in principle lower to
  /// netlists whose structural fingerprints coincide, and verdict files
  /// must never cross that line silently.
  std::uint32_t family = 0;

  /// Response compaction per slice (same contract as FaultSimOptions).
  /// The MISR width and taps ARE part of the checkpoint audit —
  /// signature verdicts depend on the polynomial — and the per-fault
  /// signature verdicts ride in the checkpoint next to detect_cycle.
  SignatureOptions signature;

  /// Faults per checkpoint slice; a checkpoint is written after each
  /// slice is finalized. Smaller = finer-grained resume, more writes.
  std::size_t checkpoint_every = 4096;

  /// Checkpoint file path; empty disables checkpointing (the campaign
  /// still supports cancellation and deadlines).
  std::string checkpoint_path;

  /// If true and checkpoint_path exists, load it and continue. A
  /// missing file is a fresh start (first run of a kill-resume loop); a
  /// corrupt or foreign file is an error — delete it to start over.
  bool resume = false;

  /// Wall-clock budget in seconds for the whole call; 0 = unlimited.
  double deadline_s = 0;

  /// Caller-owned kill switch (must outlive the call); may be null.
  const common::CancelToken* cancel = nullptr;

  /// Forwarded engine progress, rebased to campaign-global counts:
  /// (faults finalized across all slices incl. resumed, total faults).
  std::function<void(std::size_t, std::size_t)> progress;

  /// Prebuilt preparation state for this campaign's exact (netlist,
  /// stimulus, FULL fault universe) — forwarded to every slice, so the
  /// campaign compiles zero times instead of once per slice.
  /// Like engine/simd it is deliberately outside the checkpoint
  /// fingerprint: verdicts are artifact-independent.
  std::shared_ptr<const CompiledArtifact> artifact;

  /// Optional schedule cache (caller-owned, must outlive the call).
  /// When set and `artifact` is empty, run_campaign acquires the
  /// artifact once before the slice loop — memory LRU, then disk, then
  /// a single build — and folds the cache stats into the result.
  /// Ignored when the engine is FullSweep. Null keeps the historical
  /// once-per-slice preparation.
  ScheduleCache* schedule_cache = nullptr;
};

struct CampaignResult {
  /// Merged verdicts. complete == false iff the run stopped early.
  /// sim.stats aggregates engine observability over the slices this
  /// invocation ran (slices restored from a checkpoint did no work and
  /// contribute nothing).
  FaultSimResult sim;
  /// Slices skipped because the loaded checkpoint had finalized them.
  std::size_t resumed_slices = 0;
  /// Slices finalized by this invocation.
  std::size_t completed_slices = 0;
  std::size_t checkpoints_written = 0;
  /// Why the run stopped early (Cancelled or DeadlineExceeded);
  /// nullopt when the campaign ran to completion.
  std::optional<ErrorCode> stop_reason;
};

/// Run one campaign over an explicit fault universe. Returns an Error
/// only for environmental failures (Io, CorruptCheckpoint,
/// FingerprintMismatch); cancellation and deadlines yield a *valid
/// partial* CampaignResult, not an error.
Expected<CampaignResult> run_campaign(const gate::Netlist& nl,
                                      std::span<const std::int64_t> stimulus,
                                      std::span<const Fault> faults,
                                      const CampaignOptions& opt);

/// One cell of a (design × generator × vectors) matrix. Spans are
/// caller-owned views and must outlive the run_campaigns call.
struct CampaignJob {
  /// Names the per-job checkpoint file; sanitized to [A-Za-z0-9._-].
  std::string label;
  const gate::Netlist* netlist = nullptr;
  std::span<const Fault> faults;
  std::span<const std::int64_t> stimulus;
};

/// Run a whole matrix sequentially. opt.checkpoint_path names a
/// *directory* here (created if missing); each job checkpoints to
/// "<dir>/<label>.ckpt". The deadline and cancel token bound the whole
/// matrix, not each job. Jobs after an early stop are not attempted:
/// the returned vector holds one entry per job actually started.
Expected<std::vector<CampaignResult>> run_campaigns(
    std::span<const CampaignJob> jobs, const CampaignOptions& opt);

} // namespace fdbist::fault
