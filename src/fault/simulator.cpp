#include "fault/simulator.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <mutex>
#include <optional>

#include "common/bits.hpp"
#include "common/check.hpp"
#include "common/parallel.hpp"
#include "fault/checkpoint.hpp"
#include "fault/kernel.hpp"
#include "fault/schedule_cache.hpp"
#include "gate/schedule.hpp"
#include "gate/sim.hpp"

namespace fdbist::fault {

const char* fault_sim_engine_name(FaultSimEngine e) {
  switch (e) {
  case FaultSimEngine::Auto: return "auto";
  case FaultSimEngine::Compiled: return "compiled-cone";
  case FaultSimEngine::FullSweep: return "full-sweep";
  }
  return "?";
}

std::size_t FaultSimResult::detected_by(std::size_t vector_count) const {
  std::size_t n = 0;
  for (const std::int32_t c : detect_cycle)
    if (c >= 0 && static_cast<std::size_t>(c) < vector_count) ++n;
  return n;
}

std::vector<double> FaultSimResult::coverage_at(
    const std::vector<std::size_t>& checkpoints) const {
  std::vector<double> out;
  out.reserve(checkpoints.size());
  for (const std::size_t v : checkpoints)
    out.push_back(total_faults == 0
                      ? 1.0
                      : static_cast<double>(detected_by(v)) /
                            static_cast<double>(total_faults));
  return out;
}

std::size_t FaultSimResult::signature_detected() const {
  std::size_t n = 0;
  for (const std::uint8_t s : signature_detect) n += s;
  return n;
}

std::size_t FaultSimResult::aliased() const {
  std::size_t n = 0;
  for (std::size_t i = 0; i < signature_detect.size(); ++i)
    if (finalized[i] && detect_cycle[i] >= 0 && !signature_detect[i]) ++n;
  return n;
}

Expected<void> FaultSimResult::merge(const FaultSimResult& part,
                                     std::size_t offset) {
  if (offset > total_faults || part.total_faults > total_faults - offset)
    return Error{ErrorCode::InvalidArgument,
                 "merge window [" + std::to_string(offset) + ", " +
                     std::to_string(offset + part.total_faults) +
                     ") exceeds the " + std::to_string(total_faults) +
                     "-fault universe"};
  if (part.vectors != vectors)
    return Error{ErrorCode::InvalidArgument,
                 "merge of a " + std::to_string(part.vectors) +
                     "-vector partial into a " + std::to_string(vectors) +
                     "-vector result"};
  FDBIST_REQUIRE(detect_cycle.size() == total_faults &&
                     finalized.size() == total_faults &&
                     part.detect_cycle.size() == part.total_faults &&
                     part.finalized.size() == part.total_faults,
                 "merge on a result with unsized verdict arrays");
  if (signature_detect.empty() != part.signature_detect.empty())
    return Error{ErrorCode::InvalidArgument,
                 signature_detect.empty()
                     ? "merge of a signature-compacted partial into a "
                       "word-compare result"
                     : "merge of a word-compare partial into a "
                       "signature-compacted result"};
  FDBIST_REQUIRE(part.signature_detect.empty() ||
                     (signature_detect.size() == total_faults &&
                      part.signature_detect.size() == part.total_faults),
                 "merge on a result with unsized signature arrays");

  // Audit before mutating: an overlap must leave this result untouched.
  for (std::size_t i = 0; i < part.total_faults; ++i)
    if (part.finalized[i] && finalized[offset + i])
      return Error{ErrorCode::MergeOverlap,
                   "fault " + std::to_string(offset + i) +
                       " already carries a verdict (slices overlap)"};

  for (std::size_t i = 0; i < part.total_faults; ++i) {
    if (!part.finalized[i]) continue;
    detect_cycle[offset + i] = part.detect_cycle[i];
    finalized[offset + i] = 1;
    if (!part.signature_detect.empty())
      signature_detect[offset + i] = part.signature_detect[i];
    if (part.detect_cycle[i] >= 0) ++detected;
  }
  if (good_outputs.empty()) good_outputs = part.good_outputs;
  stats.merge(part.stats);
  return {};
}

namespace {

/// Trace plus widened worker state above this size force the FullSweep
/// fallback (Auto only).
constexpr std::size_t kGoodTraceMemCap = std::size_t{512} << 20;

/// Compiled-engine memory estimate for the Auto decision: the good
/// trace (one bit per net per cycle — width-independent) plus each
/// worker's per-net simulation word at the resolved lane width. The
/// widened words are exactly why this must scale with the backend: at
/// 512 lanes a worker's net array is 8x the scalar one.
std::size_t compiled_mem_estimate(std::size_t nets, std::size_t cycles,
                                  std::size_t workers,
                                  std::size_t lane_width) {
  return gate::GoodTrace::bytes_needed(nets, cycles) +
         workers * nets * (lane_width / 8);
}

/// A time segment spans at least this many settle depths, so its
/// warm-up costs at most 1/16 of it.
constexpr std::size_t kSettleDepthsPerSegment = 16;

/// Time segments for a compiled word-compare pass of `budget` cycles:
/// n = floor(budget / (16 D)), used only when n >= 2, and none without
/// a settle depth (registers in a cycle never forget their start
/// state). It depends on the netlist and the budget alone, never on the
/// thread count, so results and stats are the same at every thread
/// count. A netlist without registers (D = 0) splits as if D were 1.
std::size_t segment_count(std::size_t budget,
                          std::optional<std::size_t> settle_depth) {
  if (!settle_depth) return 1;
  const std::size_t n =
      budget / (kSettleDepthsPerSegment *
                std::max<std::size_t>(*settle_depth, 1));
  return n >= 2 ? n : 1;
}

std::uint64_t now_ns() {
  return std::uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                           std::chrono::steady_clock::now().time_since_epoch())
                           .count());
}

/// The signed value of an output bit group (LSB first) in every row of
/// a good trace.
std::vector<std::int64_t> read_output_words(
    const gate::GoodTrace& trace, const std::vector<gate::NetId>& bits) {
  std::vector<std::int64_t> out(trace.cycles);
  for (std::size_t t = 0; t < trace.cycles; ++t) {
    const std::uint64_t* row = trace.row(t);
    std::uint64_t raw = 0;
    for (std::size_t j = 0; j < bits.size(); ++j)
      raw |= (gate::GoodTrace::broadcast(row, bits[j]) & 1u) << j;
    out[t] = sign_extend(raw, static_cast<int>(bits.size()));
  }
  return out;
}

/// simulate_faults, with the difference words (empty unless the run
/// compacts) returned through `signature_difference`.
FaultSimResult simulate(const gate::Netlist& nl,
                        std::span<const std::int64_t> stimulus,
                        std::span<const Fault> faults,
                        const FaultSimOptions& opt,
                        std::vector<std::uint32_t>& signature_difference) {
  FDBIST_REQUIRE(nl.inputs().size() == 1,
                 "fault simulation drives a single primary input");
  FDBIST_REQUIRE(!nl.outputs().empty(), "netlist has no observed outputs");
  FDBIST_REQUIRE(!stimulus.empty(), "empty stimulus");
  FDBIST_REQUIRE(stimulus.size() <=
                     std::size_t(std::numeric_limits<std::int32_t>::max()),
                 "stimulus too long for the int32 detect_cycle encoding");
  for (const Fault& f : faults)
    FDBIST_REQUIRE(f.gate >= 0 && std::size_t(f.gate) < nl.size(),
                   "fault site outside the netlist");

  const bool sig_on = opt.signature.enabled();
  if (sig_on) {
    FDBIST_REQUIRE(opt.signature.width >= 2 && opt.signature.width <= 31,
                   "signature width out of range (2..31)");
    FDBIST_REQUIRE(opt.signature.taps != 0 &&
                       (opt.signature.taps >> opt.signature.width) == 0,
                   "signature feedback taps empty or beyond the register "
                   "width");
    FDBIST_REQUIRE(nl.outputs().size() == 1,
                   "signature compaction absorbs exactly one output group");
  }

  FaultSimResult result;
  result.total_faults = faults.size();
  result.vectors = stimulus.size();
  result.detect_cycle.assign(faults.size(), -1);
  result.finalized.assign(faults.size(), 0);
  signature_difference.assign(sig_on ? faults.size() : 0, 0);

  const common::SimdBackend simd = detail::resolve_simd_backend(opt.simd);
  const detail::BatchKernel& kernel = detail::batch_kernel(simd);
  const detail::BatchKernel& narrow =
      detail::batch_kernel(common::SimdBackend::Scalar);
  const std::size_t threads = common::resolve_threads(opt.num_threads);

  FaultSimEngine engine = opt.engine;
  if (engine == FaultSimEngine::Auto)
    engine = compiled_mem_estimate(nl.size(), stimulus.size(), threads,
                                   kernel.lanes()) <= kGoodTraceMemCap
                 ? FaultSimEngine::Compiled
                 : FaultSimEngine::FullSweep;

  // Preparation: a compiled schedule and (Compiled engine) a good
  // trace. A prebuilt CompiledArtifact (FaultSimOptions::artifact)
  // carries both, so this run skips compilation and trace recording
  // entirely; otherwise the run compiles `nl` and records one
  // full-budget trace. FullSweep ignores the artifact.
  const CompiledArtifact* art =
      engine == FaultSimEngine::Compiled ? opt.artifact.get() : nullptr;
  std::optional<gate::CompiledSchedule> owned_sched;
  const gate::CompiledSchedule* sched_ptr = nullptr;
  if (art != nullptr) {
    // A mismatched artifact is an API-misuse bug (the cache keys on
    // these exact fingerprints), so REQUIRE rather than silently
    // falling back: a silent recompile here would mask the bug forever.
    FDBIST_REQUIRE(art->key.netlist_fp == fingerprint_netlist(nl),
                   "artifact was built for a different netlist");
    FDBIST_REQUIRE(art->key.stimulus_fp == fingerprint_stimulus(stimulus),
                   "artifact was built for a different stimulus");
    FDBIST_REQUIRE(art->schedule.has_value(),
                   "artifact carries no compiled schedule");
    sched_ptr = &*art->schedule;
  } else {
    // Compile once; shared read-only by every worker of every pass.
    const std::uint64_t c0 = now_ns();
    owned_sched.emplace(nl);
    result.stats.prep_compile_ns += now_ns() - c0;
    result.stats.schedule_compilations = 1;
    sched_ptr = &*owned_sched;
  }
  const gate::CompiledSchedule& sched = *sched_ptr;
  const std::uint64_t full_sweep_gates = nl.logic_gate_count();

  // The compiled engine's good trace: the artifact's, or one full-budget
  // recording per call. Batch kernels only read row prefixes, so the
  // same trace serves the stage-1 weed-out and the full-budget stage.
  std::optional<gate::GoodTrace> recorded;
  const gate::GoodTrace* trace = nullptr;
  if (engine == FaultSimEngine::Compiled && !faults.empty()) {
    if (art != nullptr) {
      trace = &art->trace;
    } else {
      const std::uint64_t t0 = now_ns();
      recorded = gate::record_good_trace(sched, stimulus, stimulus.size());
      result.stats.prep_trace_ns += now_ns() - t0;
      result.stats.good_trace_cycles += stimulus.size();
      trace = &*recorded;
    }
    result.good_outputs = read_output_words(*trace, nl.outputs().front());
  }

  // Progress counts *finalized* faults — detected, or survived the full
  // stimulus — so the reported sequence climbs monotonically to the
  // total exactly once even though the engine takes two passes. The
  // mutex both serializes the user callback and orders the cumulative
  // counter, so workers finishing batches out of order still deliver a
  // strictly increasing sequence.
  std::mutex progress_mu;
  std::size_t progress_done = 0;
  auto report_finalized = [&](std::size_t finalized) {
    if (!opt.progress || finalized == 0) return;
    const std::scoped_lock lock(progress_mu);
    progress_done += finalized;
    opt.progress(progress_done, faults.size());
  };

  // One pass over `indices` with the first `budget` vectors, run as
  // (batch x time-segment) units sharded dynamically across workers.
  // Each worker owns a private executor (a width-dispatched BatchWorker
  // over the shared schedule); each unit writes its own detection
  // array. The worker that finishes a batch's last segment takes every
  // fault's detect cycle from the earliest segment that saw it, writes
  // the batch's disjoint detect_cycle and finalized entries and its
  // survivor list, and books its stats. Survivor lists are concatenated in batch order
  // afterwards, which makes the returned order — and therefore the
  // batch composition of the next pass — identical to the sequential
  // engine's for any thread count.
  //
  // Segments (segment_count) split compiled word-compare passes only:
  // a signature is absorbed over the whole stimulus, and the FullSweep
  // reference stays one sequential run per batch. Segment [b, e)
  // starts from reset at max(0, b - D) and counts detections from b on;
  // after D cycles every net holds its sequential value, so it detects
  // exactly what the whole-budget run detects in [b, e). An unsplit
  // pass is the one-segment case. Units are numbered segment-major:
  // u = segment * num_batches + batch.
  //
  // A pass that fits one 64-lane batch runs on the 64-lane kernel: a
  // wider word would carry its empty lanes through every gate.
  //
  // Cancellation stops workers at unit boundaries: a batch whose
  // segments did not all run leaves its faults unfinalized (and out of
  // the survivor list, so a later pass never touches them either).
  // Batches that finished keep their verdicts — the partial result is
  // valid, just incomplete.
  const std::optional<std::size_t> settle = sched.settle_depth();
  auto run_pass = [&](const std::vector<std::size_t>& indices,
                      std::size_t budget, bool final_pass) {
    const detail::BatchKernel& k =
        indices.size() <= narrow.faults_per_batch() ? narrow : kernel;
    const std::size_t fpb = k.faults_per_batch();
    const std::size_t num_batches = (indices.size() + fpb - 1) / fpb;
    const std::size_t segments =
        trace != nullptr && !sig_on ? segment_count(budget, settle) : 1;
    const std::size_t units = num_batches * segments;
    const std::size_t workers =
        std::max<std::size_t>(1, std::min(threads, units));
    std::vector<std::unique_ptr<detail::BatchWorker>> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w)
      pool.push_back(k.make_worker(sched));

    std::vector<std::int32_t> unit_detect(units * fpb);
    std::vector<detail::BatchRun> unit_run(units);
    std::vector<std::atomic<std::size_t>> segments_left(num_batches);
    for (auto& left : segments_left)
      left.store(segments, std::memory_order_relaxed);
    std::vector<FaultSimStats> worker_stats(workers);
    std::vector<std::vector<std::size_t>> batch_survivors(num_batches);

    auto finish_batch = [&](FaultSimStats& st, std::size_t b) {
      const std::size_t base = b * fpb;
      const std::size_t count = std::min(fpb, indices.size() - base);
      std::size_t found = 0;
      std::size_t last = 0;
      for (std::size_t m = 0; m < count; ++m) {
        std::int32_t c = -1;
        for (std::size_t s = 0; s < segments && c < 0; ++s)
          c = unit_detect[(s * num_batches + b) * fpb + m];
        const std::size_t idx = indices[base + m];
        result.detect_cycle[idx] = c;
        if (final_pass || c >= 0) result.finalized[idx] = 1;
        if (c < 0) {
          batch_survivors[b].push_back(idx);
          continue;
        }
        ++found;
        last = std::max(last, std::size_t(c));
      }
      // The sequential engine's cycles: up to the last detection when
      // it found every fault and could exit early, else the budget.
      const std::size_t sequential =
          !sig_on && found == count ? last + 1 : budget;
      std::size_t stepped = 0;
      for (std::size_t s = 0; s < segments; ++s)
        stepped += unit_run[s * num_batches + b].stepped;
      FDBIST_ASSERT(stepped >= sequential,
                    "segments stepped fewer cycles than one whole run");
      const std::size_t gates = unit_run[b].gates_per_cycle;
      st.batches += 1;
      st.cycles_simulated += sequential;
      st.cycles_budgeted += budget;
      st.segment_overhead_cycles += stepped - sequential;
      st.gates_evaluated += std::uint64_t(gates) * sequential;
      st.gates_full_sweep += full_sweep_gates * sequential;
      st.cone_fraction_sum += full_sweep_gates == 0
                                  ? 1.0
                                  : double(gates) / double(full_sweep_gates);
      report_finalized(final_pass ? count : found);
    };

    common::parallel_for(
        units, workers, opt.cancel, [&](std::size_t worker, std::size_t u) {
          const std::size_t s = u / num_batches;
          const std::size_t b = u % num_batches;
          const std::size_t base = b * fpb;
          const std::size_t count = std::min(fpb, indices.size() - base);
          const std::size_t begin = budget * s / segments;
          const detail::CycleWindow window{
              begin - std::min(begin, settle.value_or(0)), begin,
              budget * (s + 1) / segments};
          unit_run[u] = pool[worker]->run_batch(
              faults, stimulus, {indices.data() + base, count}, window,
              trace, unit_detect.data() + u * fpb, opt.signature,
              sig_on ? signature_difference.data() : nullptr);
          if (segments_left[b].fetch_sub(1, std::memory_order_acq_rel) == 1)
            finish_batch(worker_stats[worker], b);
        });

    // Worker-local stats merge after the join; the sums are over the
    // set of batches that finished, so they are order- and thread-count-
    // independent on complete runs.
    for (const FaultSimStats& st : worker_stats) result.stats.merge(st);

    std::vector<std::size_t> survivors;
    for (const std::vector<std::size_t>& batch : batch_survivors)
      survivors.insert(survivors.end(), batch.begin(), batch.end());
    return survivors;
  };

  auto cancelled = [&] {
    return opt.cancel != nullptr && opt.cancel->cancelled();
  };

  // Stage 1: a short budget weeds out the easily detected majority so
  // only genuinely hard faults pay for long batches. Stage 2 finishes
  // the survivors on the full stimulus. Signature mode takes one
  // full-budget pass instead: the signature is defined over the whole
  // stimulus, so every batch must absorb every vector.
  std::vector<std::size_t> all(faults.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  const std::size_t stage1 =
      sig_on ? stimulus.size() : std::min<std::size_t>(128, stimulus.size());
  const bool stage1_is_final = stage1 == stimulus.size();
  auto survivors = run_pass(all, stage1, stage1_is_final);
  if (!stage1_is_final && !survivors.empty() && !cancelled())
    run_pass(survivors, stimulus.size(), /*final_pass=*/true);

  for (const std::int32_t c : result.detect_cycle)
    if (c >= 0) ++result.detected;
  for (const std::uint32_t d : signature_difference)
    result.signature_detect.push_back(d != 0 ? 1 : 0);
  result.complete = result.finalized_count() == faults.size();
  // Merges may have left worker defaults in place.
  result.stats.engine = engine;
  result.stats.lane_width = kernel.lanes();
  result.stats.simd = kernel.backend();
  return result;
}

} // namespace

FaultSimResult simulate_faults(const gate::Netlist& nl,
                               std::span<const std::int64_t> stimulus,
                               std::span<const Fault> faults,
                               const FaultSimOptions& opt) {
  std::vector<std::uint32_t> signature_difference;
  return simulate(nl, stimulus, faults, opt, signature_difference);
}

FaultSimResult simulate_faults(
    const gate::Netlist& nl, std::span<const std::int64_t> stimulus,
    std::span<const Fault> faults, const FaultSimOptions& opt,
    std::vector<std::uint32_t>& signature_difference) {
  FDBIST_REQUIRE(opt.signature.enabled(),
                 "difference words need signature compaction enabled");
  return simulate(nl, stimulus, faults, opt, signature_difference);
}

FaultSimResult simulate_design(const gate::LoweredDesign& d,
                               const rtl::Graph& g,
                               std::span<const std::int64_t> stimulus,
                               const FaultSimOptions& opt) {
  const auto faults =
      order_for_simulation(enumerate_adder_faults(d), d.netlist, g);
  return simulate_faults(d.netlist, stimulus, faults, opt);
}

} // namespace fdbist::fault
