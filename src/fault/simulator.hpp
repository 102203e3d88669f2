// Parallel sequential fault simulation.
//
// Classic N-1-faults-per-word scheme: lane 0 is the good machine, the
// remaining lanes of the simulation word (63, 255 or 511 depending on
// the SIMD backend — common/simd.hpp) each carry one injected stuck-at
// fault. Each batch runs the full stimulus (with each fault's own
// register state evolving in its lane) until every fault in the batch
// has produced an output difference or the vector budget is exhausted. Detection is observation at the filter's
// output word with no response compaction — the paper's "no aliasing in
// the response analyzer" assumption.
//
// One shared batch kernel serves every layer: the serial oracle
// (fault/serial.hpp) is the kernel at one thread on the full-sweep
// engine, the parallel engine shards the same batches across workers,
// and campaigns (fault/campaign.hpp) slice the fault universe over
// repeated kernel calls. Two interchangeable batch engines exist:
//
//   * Compiled (default): PPSFP-style good-machine reuse. The netlist
//     is compiled once (gate/schedule.hpp), the fault-free machine runs
//     once per call recording a bit-packed good trace over the full
//     stimulus (both stages read it), and each batch then evaluates
//     only the union of its faults' structural fan-out cones (closed
//     through registers), reading out-of-cone operands from the
//     trace. Results are bit-identical to the full sweep —
//     anything outside the cone provably holds the good value. On a
//     netlist whose registers form no cycle, a long word-compare pass
//     also splits each batch into time segments, each warmed up over
//     the netlist's settle depth, so even a single batch of survivors
//     spreads across workers.
//   * FullSweep: every batch re-evaluates the whole netlist each clock
//     (the pre-compilation engine). Retained as the differential
//     reference for the compiled engine, and as the automatic fallback
//     when the good trace would not fit in memory.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/simd.hpp"
#include "fault/fault.hpp"

namespace fdbist::fault {

struct CompiledArtifact; // fault/schedule_cache.hpp

/// Which batch engine simulate_faults uses. Verdicts are bit-identical
/// across engines; only the work per batch differs.
enum class FaultSimEngine : std::uint8_t {
  Auto,      ///< Compiled unless the good trace would exceed memory
  Compiled,  ///< cone-restricted sweep over the compiled schedule
  FullSweep, ///< whole-netlist sweep per batch (reference engine)
};

const char* fault_sim_engine_name(FaultSimEngine e);

/// Engine observability: how much work the kernel actually did,
/// aggregated over batches (and over slices, for campaigns). All
/// counters are deterministic for a given (netlist, stimulus, faults,
/// engine) — batch composition never depends on thread count.
struct FaultSimStats {
  /// Engine that ran (never Auto in a result).
  FaultSimEngine engine = FaultSimEngine::Auto;
  std::uint64_t batches = 0;
  /// Clock cycles the batches take as one run each from reset: the
  /// budget, or up to the last detection when every fault of the batch
  /// is found. Time segments leave it unchanged (what they add is
  /// segment_overhead_cycles), so both engines report the same count.
  std::uint64_t cycles_simulated = 0;
  /// Clock cycles batches were budgeted for; the difference from
  /// cycles_simulated is early exit (every fault in the batch detected).
  std::uint64_t cycles_budgeted = 0;
  /// Cycles time-segmented passes stepped beyond cycles_simulated: each
  /// segment's warm-up, plus the cycles a segment ran after its batch's
  /// last detection. Always 0 on FullSweep and signature runs, which
  /// never split a batch.
  std::uint64_t segment_overhead_cycles = 0;
  /// Logic-gate evaluations in batch clock loops over cycles_simulated
  /// (cone gates x cycles on the compiled engine).
  std::uint64_t gates_evaluated = 0;
  /// Logic-gate evaluations a full sweep would have performed for the
  /// same simulated cycles (= logic gates x cycles_simulated).
  std::uint64_t gates_full_sweep = 0;
  /// Fault-free cycles spent recording good traces (compiled engine):
  /// one full-budget recording per simulate_faults call that compiled
  /// its own schedule, none when it ran off an artifact.
  std::uint64_t good_trace_cycles = 0;
  /// Sum over batches of |cone gates| / |logic gates|.
  double cone_fraction_sum = 0;
  /// Simulation word width in lanes (64 scalar, 256 AVX2, 512 AVX-512)
  /// of the backend the call resolved. Never Auto in a result. A pass
  /// of at most 63 faults runs on 64 lanes whatever the backend.
  std::size_t lane_width = 0;
  common::SimdBackend simd = common::SimdBackend::Auto;
  /// Preparation-time breakdown: what simulate_faults (or the artifact
  /// build/load on its behalf) spent before the first batch ran. A run
  /// handed a prebuilt artifact reports zero compile/trace time — that
  /// is the whole point — while the acquisition site folds the
  /// artifact's own build/load/save time in via fold_cache_stats
  /// (fault/schedule_cache.hpp).
  std::uint64_t prep_compile_ns = 0; ///< CompiledSchedule construction
  std::uint64_t prep_trace_ns = 0;   ///< good-trace recording
  std::uint64_t prep_artifact_load_ns = 0;  ///< FDBA load + validate
  std::uint64_t prep_artifact_build_ns = 0; ///< artifact build on miss
  std::uint64_t prep_artifact_save_ns = 0;  ///< FDBA serialize + write
  /// Always 0: kept only because the perfbench harness still reads it;
  /// the next benchmark change drops it.
  std::uint64_t prep_passes_ns = 0;
  /// Schedule compilations actually performed (0 when an artifact was
  /// reused). A campaign split into S slices compiles once per design,
  /// not once per slice — this counter is how tests verify that.
  std::uint64_t schedule_compilations = 0;
  /// Artifact-cache observability (fold_cache_stats).
  std::uint64_t artifact_mem_hits = 0;
  std::uint64_t artifact_disk_hits = 0;
  std::uint64_t artifact_misses = 0;
  std::uint64_t artifact_evictions = 0;
  std::uint64_t artifact_load_failures = 0;

  /// Mean fraction of the netlist a batch actually evaluates (1.0 for
  /// the full-sweep engine).
  double mean_cone_fraction() const {
    return batches == 0 ? 1.0 : cone_fraction_sum / double(batches);
  }
  /// Mean cycles per batch saved by early exit.
  double mean_early_exit_cycles() const {
    return batches == 0
               ? 0.0
               : double(cycles_budgeted - cycles_simulated) / double(batches);
  }
  /// Fraction of full-sweep gate evaluations the engine skipped.
  double gate_eval_savings() const {
    return gates_full_sweep == 0
               ? 0.0
               : 1.0 - double(gates_evaluated) / double(gates_full_sweep);
  }

  /// Accumulate another run's counters (campaign slices). Engines must
  /// agree unless one side is empty.
  void merge(const FaultSimStats& o) {
    if (batches == 0) {
      engine = o.engine;
      lane_width = o.lane_width;
      simd = o.simd;
    }
    batches += o.batches;
    cycles_simulated += o.cycles_simulated;
    cycles_budgeted += o.cycles_budgeted;
    segment_overhead_cycles += o.segment_overhead_cycles;
    gates_evaluated += o.gates_evaluated;
    gates_full_sweep += o.gates_full_sweep;
    good_trace_cycles += o.good_trace_cycles;
    cone_fraction_sum += o.cone_fraction_sum;
    prep_compile_ns += o.prep_compile_ns;
    prep_trace_ns += o.prep_trace_ns;
    prep_artifact_load_ns += o.prep_artifact_load_ns;
    prep_artifact_build_ns += o.prep_artifact_build_ns;
    prep_artifact_save_ns += o.prep_artifact_save_ns;
    schedule_compilations += o.schedule_compilations;
    artifact_mem_hits += o.artifact_mem_hits;
    artifact_disk_hits += o.artifact_disk_hits;
    artifact_misses += o.artifact_misses;
    artifact_evictions += o.artifact_evictions;
    artifact_load_failures += o.artifact_load_failures;
  }
};

/// Opt-in response compaction for simulate_faults. When enabled, every
/// lane drives a Galois MISR (bist/misr.hpp semantics: shift, feedback,
/// then inject the response word — sign-extended when the register is
/// wider, folded onto bit o mod width when narrower; see
/// collect_signature_nets) and a fault's signature verdict is whether
/// its final signature differs from the good machine's. The kernel
/// exploits MISR linearity over GF(2): faulty = good XOR the MISR of the
/// per-cycle XOR-difference stream run from the zero state — so one
/// bit-sliced difference register per lane suffices and the seed
/// cancels out entirely.
struct SignatureOptions {
  /// MISR width (2..31); 0 disables compaction.
  int width = 0;
  /// Low feedback terms of the characteristic polynomial (the
  /// tpg::Polynomial::low_terms encoding). Callers normally fill this
  /// from tpg::default_polynomial(width); kept as a raw word here so
  /// the fault layer does not depend on tpg.
  std::uint32_t taps = 0;

  bool enabled() const { return width != 0; }
};

struct FaultSimOptions {
  /// Worker threads the fault batches are sharded across: 0 = one
  /// worker per hardware thread, 1 = the single-threaded legacy path
  /// (no threads are spawned). The result is bit-identical for every
  /// value — each shard owns private gate-sim state and writes disjoint
  /// detect_cycle entries, and survivors are merged in batch order.
  std::size_t num_threads = 0;

  /// Called with (faults finalized so far, total) after each finished
  /// batch; a fault is finalized once detected or once it has survived
  /// the full stimulus. Calls are serialized under an internal mutex,
  /// so even with many workers the callback observes a strictly
  /// increasing sequence, ending at (total, total) unless the run is
  /// cancelled first. May be empty. An exception thrown from the
  /// callback cancels outstanding batches, joins all workers, and
  /// propagates to the simulate_faults caller.
  std::function<void(std::size_t, std::size_t)> progress;

  /// Optional cooperative cancellation (caller keeps ownership; the
  /// token must outlive the call). Workers poll at batch
  /// boundaries: once the token fires — explicit cancel() or an expired
  /// deadline — no new batch starts, in-flight batches finish, and a
  /// valid *partial* FaultSimResult comes back with complete == false.
  /// Coverage-so-far is reported, never discarded.
  const common::CancelToken* cancel = nullptr;

  /// Batch engine. Auto resolves to Compiled unless the trace plus the
  /// workers' widened per-net simulation state would exceed an internal
  /// memory cap (then FullSweep). Verdicts are bit-identical either
  /// way.
  FaultSimEngine engine = FaultSimEngine::Auto;

  /// SIMD backend for the batch kernel. Auto honours the FDBIST_SIMD
  /// environment override, else picks the widest backend compiled in
  /// and supported by the CPU; an unavailable explicit request
  /// degrades to the best available. Verdicts are bit-identical at
  /// every width — only batch geometry and throughput change.
  common::SimdBackend simd = common::SimdBackend::Auto;

  /// Response compaction. When enabled the run takes a single
  /// full-budget pass (the signature is defined over the whole stimulus,
  /// so neither the two-stage weed-out nor per-batch early exit may
  /// shorten absorption) and FaultSimResult::signature_detect carries
  /// the per-fault signature verdicts next to the word-compare ground
  /// truth in detect_cycle. Both verdict sets stay bit-identical across
  /// engines, SIMD widths and thread counts.
  SignatureOptions signature;

  /// Prebuilt preparation state (fault/schedule_cache.hpp): the
  /// netlist, compiled schedule and full-budget good trace, built once
  /// and shared across slices/threads/processes. When set and the
  /// engine resolves to Compiled, simulate_faults skips its own
  /// compilation and trace recording entirely and simulates `faults`
  /// (any subset of the artifact's keyed universe) on the artifact's
  /// netlist. The artifact MUST have been built for this exact
  /// (netlist, stimulus) — enforced by fingerprint REQUIREs, since a
  /// mismatched handle is an API-misuse bug, not an environmental
  /// failure. Ignored by FullSweep. Verdicts are bit-identical with or
  /// without the artifact.
  std::shared_ptr<const CompiledArtifact> artifact;
};

struct FaultSimResult {
  std::size_t total_faults = 0;
  std::size_t detected = 0;
  std::size_t vectors = 0;
  /// Per-fault cycle (0-based) of first detection, -1 if never detected.
  /// On a cancelled run, -1 also covers faults whose batches never ran;
  /// `finalized` disambiguates.
  std::vector<std::int32_t> detect_cycle;
  /// Per-fault: 1 once the engine reached a definitive verdict (detected,
  /// or survived the full stimulus). All-ones unless cancelled.
  std::vector<std::uint8_t> finalized;
  /// Per-fault: 1 iff the fault's final MISR signature differs from the
  /// good machine's. Sized total_faults when the run compacted
  /// responses (FaultSimOptions::signature), empty otherwise. A fault
  /// with detect_cycle >= 0 but signature_detect == 0 aliased in the
  /// compactor.
  std::vector<std::uint8_t> signature_detect;
  /// Fault-free value of the observed output word (the netlist's first
  /// output group) each cycle, read from the good trace the compiled
  /// engine ran against. Empty when the run had no trace (FullSweep, or
  /// no faults); merge() adopts the first non-empty copy. BistKit reads
  /// its golden signature from it instead of simulating again.
  std::vector<std::int64_t> good_outputs;
  /// False iff the run was cut short by the cancellation token — some
  /// faults then carry no verdict and `missed()` overstates misses.
  bool complete = true;
  /// Engine observability: work done vs. a naive full sweep, mean cone
  /// fraction, early-exit cycles. Consumed by perf_fault_sim and the
  /// bench drivers; purely informational, never affects verdicts.
  FaultSimStats stats;

  std::size_t finalized_count() const {
    std::size_t n = 0;
    for (const std::uint8_t f : finalized) n += f;
    return n;
  }

  /// Merge a partial result covering faults [offset, offset +
  /// part.total_faults) of this result's universe — the one audited way
  /// verdicts from campaign slices and checkpoint restores are
  /// combined. Only `part`'s finalized entries are absorbed; `detected`
  /// and `stats` are updated incrementally.
  ///
  /// The merge is associative and commutative over disjoint finalized
  /// sets: any arrival order of the same partials yields bit-identical
  /// state. Audits enforced (Expected error, this result unmodified):
  ///   MergeOverlap     a fault both sides already finalized — even in
  ///                    agreement, a double-claimed fault means slice
  ///                    accounting went wrong somewhere
  ///   InvalidArgument  window out of bounds, vector-count mismatch, or
  ///                    one side ran with signature compaction and the
  ///                    other without (the verdict sets are not
  ///                    comparable)
  Expected<void> merge(const FaultSimResult& part, std::size_t offset);

  std::size_t missed() const { return total_faults - detected; }
  /// Signature-mode accessors (zero when the run did not compact).
  /// `aliased()` counts faults the word compare detects but the
  /// signature misses — the measured (not bounded) aliasing count.
  std::size_t signature_detected() const;
  std::size_t aliased() const;
  double coverage() const {
    return total_faults == 0
               ? 1.0
               : static_cast<double>(detected) /
                     static_cast<double>(total_faults);
  }
  /// Number of faults detected within the first `vector_count` vectors.
  std::size_t detected_by(std::size_t vector_count) const;
  /// Coverage curve sampled at the given vector counts.
  std::vector<double> coverage_at(
      const std::vector<std::size_t>& checkpoints) const;
};

/// Simulate every fault against the stimulus (raw input words for the
/// design's single primary input). Returns per-fault first-detection
/// cycles. Deterministic for any FaultSimOptions::num_threads; batches
/// of lanes-1 faults in the given order (the lane count follows the
/// resolved SIMD backend). Each fault's detect cycle is a pure
/// function of (netlist, stimulus, fault) — batch composition and fault
/// ordering never change it — which is what makes sliced/checkpointed
/// campaigns (fault/campaign.hpp) bit-identical to one-shot runs.
FaultSimResult simulate_faults(const gate::Netlist& nl,
                               std::span<const std::int64_t> stimulus,
                               std::span<const Fault> faults,
                               const FaultSimOptions& opt = {});

/// The same run, with opt.signature required, also returning each
/// fault's final difference word in fault order: faulty ^ good
/// signature, bit b = MISR bit b, 0 for a fault whose batch never ran.
/// signature_detect[i] is signature_difference[i] != 0.
FaultSimResult simulate_faults(
    const gate::Netlist& nl, std::span<const std::int64_t> stimulus,
    std::span<const Fault> faults, const FaultSimOptions& opt,
    std::vector<std::uint32_t>& signature_difference);

/// Convenience: simulate the full adder-fault universe of a lowered
/// design against a stimulus, with difficulty-ordered batching (see
/// fault::order_for_simulation). `g` is the RTL graph the design was
/// lowered from.
FaultSimResult simulate_design(const gate::LoweredDesign& d,
                               const rtl::Graph& g,
                               std::span<const std::int64_t> stimulus,
                               const FaultSimOptions& opt = {});

} // namespace fdbist::fault
