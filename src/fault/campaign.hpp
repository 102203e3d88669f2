// Robust long-running fault-simulation campaigns.
//
// The paper's experiment grid (Tables 4-6, Figures 10-13) is ~50-57k
// adder faults × 4k vectors per (design, generator) pair — hours of
// simulation where a killed process used to lose everything. The
// campaign layer wraps fault::simulate_faults with the three
// resilience properties those sweeps need:
//
//   * Checkpointing. The fault universe is partitioned into fixed-size
//     slices (checkpoint_every faults), the unit the checkpoint records
//     and audits. One run_campaign call simulates the faults of every
//     slice not yet finalized in a single simulate_faults call, with
//     the one-shot pass plan. When that call returns (complete,
//     cancelled or past its deadline), the campaign persists the
//     verdicts of every slice whose faults all carry one to a versioned
//     checkpoint file (fault/checkpoint.hpp). A fault's detect cycle is
//     a pure function of (netlist, stimulus, fault), independent of
//     which faults share its batches, so a resumed run simulates only
//     the slices the file has not finalized, and its final results are
//     bit-identical to an uninterrupted run for any thread count. A
//     SIGKILL loses the work of the call in flight.
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

#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "common/error.hpp"
#include "fault/simulator.hpp"

namespace fdbist::fault {

class ScheduleCache; // fault/schedule_cache.hpp

/// A campaign's options: every FaultSimOptions field, forwarded to the
/// one simulate_faults call, plus the campaign's own. Of the base fields
/// only `signature` is part of the checkpoint audit — signature verdicts
/// depend on the MISR polynomial, and the per-fault signature verdicts
/// ride in the checkpoint next to detect_cycle. Verdicts are a pure
/// function of (netlist, stimulus, fault), so a campaign may resume
/// under another engine, SIMD width, thread count or artifact and stay
/// bit-identical. `progress` counts the call's own faults (finalized so
/// far, faults this invocation simulates); `cancel` chains under the
/// deadline; `artifact`, when set, is the call's preparation.
struct CampaignOptions : FaultSimOptions {
  /// Design family the fault universe was built from
  /// (rtl::DesignFamily as u32). Part of the checkpoint audit: two
  /// families can in principle lower to netlists whose structural
  /// fingerprints coincide, and verdict files must never cross that
  /// line silently.
  std::uint32_t family = 0;

  /// Faults per checkpoint slice. The checkpoint is written once per
  /// invocation that finalizes a slice, and records only slices whose
  /// every fault carries a verdict. Smaller = finer-grained resume after
  /// a cancelled or deadlined call; it never changes the work done.
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

  /// Benchmark shim (fault/schedule_cache.hpp), ignored. The next
  /// benchmark change removes it.
  ScheduleCache* schedule_cache = nullptr;
};

struct CampaignResult {
  /// Merged verdicts. complete == false iff the run stopped early.
  /// sim.stats is this invocation's one simulate_faults call (slices
  /// restored from a checkpoint did no work and contribute nothing).
  FaultSimResult sim;
  /// Slices skipped because the loaded checkpoint had finalized them.
  std::size_t resumed_slices = 0;
  /// Slices finalized by this invocation.
  std::size_t completed_slices = 0;
  /// 1 when this invocation finalized a slice and saved the checkpoint.
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

} // namespace fdbist::fault
