// Parallel sequential fault simulation.
//
// Classic N-1-faults-per-word scheme: lane 0 is the good machine, the
// remaining lanes of the simulation word (63, 255 or 511 depending on
// the SIMD backend the call resolves — common/simd.hpp) each carry one
// injected stuck-at fault, in every pass of the call. Detection is
// observation at the filter's output word with no response compaction
// — the paper's "no aliasing in the response analyzer" assumption.
//
// A run is a short plan of passes over cycle windows. Each pass cuts
// its batches from the faults it carries in (gate, site, stuck) order,
// so a batch's faults share most of their fan-out cone. Each batch
// runs its window (with each fault's own register state evolving in
// its lane) until every fault in it has produced an output difference
// or the window ends. Word compare first weeds out the easily detected
// majority over vectors [0, 128); the survivors then climb a ladder of
// windows [b, 4b) while they span more than 4 wide batches, each
// entered from reset a settle depth early and carrying only the faults
// still undetected, and one pass finishes [b, N). A netlist without a
// settle depth reruns its survivors over [0, N) instead, and a
// signature run is one pass over [0, N).
//
// One shared batch kernel serves every layer: the serial oracle
// (fault/serial.hpp) is the kernel at one thread on the full-sweep
// engine, the parallel engine shards the same batches across workers,
// and a campaign (fault/campaign.hpp) makes one call over the faults
// its checkpoint has not finalized. Two interchangeable batch engines
// exist:
//
//   * Compiled (default): PPSFP-style good-machine reuse. Each call
//     compiles the netlist (gate/schedule.hpp) and runs the fault-free
//     machine once, recording a bit-packed good trace over the full
//     stimulus (every pass reads it); each batch then evaluates
//     only the union of its faults' structural fan-out cones (closed
//     through registers), reading out-of-cone operands from the
//     trace. Results are bit-identical to the full sweep —
//     anything outside the cone provably holds the good value. On a
//     netlist whose registers form no cycle, a long word-compare pass
//     also splits each batch into time segments, each warmed up over
//     the netlist's settle depth, so even a single batch of survivors
//     spreads across workers.
//   * FullSweep: every batch re-evaluates the whole netlist each clock
//     (the pre-compilation engine). It runs the same passes, batches
//     and windows but never splits a batch into time segments.
//     Retained as the differential reference for the compiled engine,
//     and as the automatic fallback when the good trace would not fit
//     in memory.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/parallel.hpp"
#include "common/simd.hpp"
#include "fault/fault.hpp"

namespace fdbist::fault {

/// Which batch engine simulate_faults uses. Verdicts are bit-identical
/// across engines; only the work per batch differs.
enum class FaultSimEngine : std::uint8_t {
  Auto,      ///< Compiled unless the good trace would exceed memory
  Compiled,  ///< cone-restricted sweep over the compiled schedule
  FullSweep, ///< whole-netlist sweep per batch (reference engine)
};

const char* fault_sim_engine_name(FaultSimEngine e);

/// Engine observability: how much work the kernel actually did,
/// aggregated over batches. All counters but the prep_* timings are
/// deterministic for a given (netlist, stimulus, fault set, engine,
/// SIMD backend) — batch composition depends neither on the thread
/// count nor on the order of the faults.
struct FaultSimStats {
  /// Engine that ran (never Auto in a result).
  FaultSimEngine engine = FaultSimEngine::Auto;
  std::uint64_t batches = 0;
  /// Clock cycles the batches take as one unsplit run each over their
  /// pass's window, from its reset point (the window's start less the
  /// settle depth, or 0) to the window's end, or to the last detection
  /// when every fault of the batch is found. Time segments leave it
  /// unchanged (what they add is segment_overhead_cycles), so both
  /// engines report the same count.
  std::uint64_t cycles_simulated = 0;
  /// Clock cycles batches were budgeted for: from each batch's reset
  /// point to its window's end. The difference from cycles_simulated is
  /// early exit (every fault in the batch detected).
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
  /// one full-budget recording per simulate_faults call with faults.
  std::uint64_t good_trace_cycles = 0;
  /// Sum over batches of |cone gates| / |logic gates|.
  double cone_fraction_sum = 0;
  /// Simulation word width in lanes (64 scalar, 256 AVX2, 512 AVX-512)
  /// of the backend the call resolved, which runs every pass. Never
  /// Auto in a result.
  std::size_t lane_width = 0;
  common::SimdBackend simd = common::SimdBackend::Auto;
  /// Preparation-time breakdown: what simulate_faults spent before the
  /// first batch ran.
  std::uint64_t prep_compile_ns = 0; ///< CompiledSchedule construction
  std::uint64_t prep_trace_ns = 0;   ///< good-trace recording
  /// Always 0: kept only because the perfbench harness still reads it;
  /// the next benchmark change drops it.
  std::uint64_t prep_passes_ns = 0;

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

  /// Accumulate another run's counters. Engines must agree unless one
  /// side is empty.
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
  /// memory cap (then FullSweep; see resolve_engine). Verdicts are
  /// bit-identical either way.
  FaultSimEngine engine = FaultSimEngine::Auto;

  /// SIMD backend for the batch kernel. Auto honours the FDBIST_SIMD
  /// environment override, else picks the widest backend compiled in
  /// and supported by the CPU; an unavailable explicit request
  /// degrades to the best available. Verdicts are bit-identical at
  /// every width — only batch geometry and throughput change.
  common::SimdBackend simd = common::SimdBackend::Auto;

  /// Response compaction. When enabled the run takes a single
  /// full-budget pass (the signature is defined over the whole stimulus,
  /// so neither the weed-out and its survivor windows nor per-batch
  /// early exit may shorten absorption) and
  /// FaultSimResult::signature_detect carries
  /// the per-fault signature verdicts next to the word-compare ground
  /// truth in detect_cycle. Both verdict sets stay bit-identical across
  /// engines, SIMD widths and thread counts.
  SignatureOptions signature;
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
  /// no faults); a campaign carries its one call's copy. BistKit reads
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
/// cycles, indexed like `faults`. Deterministic for any
/// FaultSimOptions::num_threads; batches of lanes-1 faults packed by
/// (gate, site, stuck) whatever order `faults` comes in (the lane count
/// follows the resolved SIMD backend), so the work counters too depend
/// on the fault set, not its order. Each fault's detect cycle is a pure
/// function of (netlist, stimulus, fault) — batch composition and fault
/// ordering never change it — which is what makes checkpointed
/// campaigns (fault/campaign.hpp) bit-identical to one-shot runs.
FaultSimResult simulate_faults(const gate::Netlist& nl,
                               std::span<const std::int64_t> stimulus,
                               std::span<const Fault> faults,
                               const FaultSimOptions& opt = {});

/// The engine simulate_faults runs for `opt` over `cycles` vectors of
/// `nl`: an explicit engine as given; Auto resolves to Compiled unless
/// the good trace plus every worker's per-net word at the resolved lane
/// width would exceed the compiled engine's 512 MiB memory cap, and to
/// FullSweep otherwise. Allocates nothing.
FaultSimEngine resolve_engine(const gate::Netlist& nl, std::size_t cycles,
                              const FaultSimOptions& opt);

/// The same run, with opt.signature required, also returning each
/// fault's final difference word in fault order: faulty ^ good
/// signature, bit b = MISR bit b, 0 for a fault whose batch never ran.
/// signature_detect[i] is signature_difference[i] != 0.
FaultSimResult simulate_faults(
    const gate::Netlist& nl, std::span<const std::int64_t> stimulus,
    std::span<const Fault> faults, const FaultSimOptions& opt,
    std::vector<std::uint32_t>& signature_difference);

} // namespace fdbist::fault
