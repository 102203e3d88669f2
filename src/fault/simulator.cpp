#include "fault/simulator.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <mutex>
#include <numeric>
#include <optional>
#include <tuple>

#include "common/bits.hpp"
#include "common/check.hpp"
#include "common/parallel.hpp"
#include "fault/kernel.hpp"
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

namespace {

/// Trace plus widened worker state above this size force the FullSweep
/// fallback (Auto only; resolve_engine).
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

/// Time segments for a compiled word-compare pass over a window of
/// `cycles` cycles: n = floor(cycles / (16 D)), used only when n >= 2,
/// and none without a settle depth (registers in a cycle never forget
/// their start state). It depends on the netlist and the window alone,
/// never on the thread count, so results and stats are the same at
/// every thread count. A netlist without registers (D = 0) splits as if
/// D were 1.
std::size_t segment_count(std::size_t cycles,
                          std::optional<std::size_t> settle_depth) {
  if (!settle_depth) return 1;
  const std::size_t n =
      cycles / (kSettleDepthsPerSegment *
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
  const std::size_t fpb = kernel.faults_per_batch();
  const std::size_t threads = common::resolve_threads(opt.num_threads);

  const FaultSimEngine engine = resolve_engine(nl, stimulus.size(), opt);

  // Preparation: compile `nl` once, shared read-only by every worker
  // of every pass, and (Compiled engine) record one full-budget good
  // trace. Batch kernels read the rows of their windows, so the one
  // trace serves every pass.
  const std::uint64_t c0 = now_ns();
  const gate::CompiledSchedule sched(nl);
  result.stats.prep_compile_ns += now_ns() - c0;
  const std::uint64_t full_sweep_gates = nl.logic_gate_count();

  std::optional<gate::GoodTrace> recorded;
  if (engine == FaultSimEngine::Compiled && !faults.empty()) {
    const std::uint64_t t0 = now_ns();
    recorded = gate::record_good_trace(sched, stimulus, stimulus.size());
    result.stats.prep_trace_ns += now_ns() - t0;
    result.stats.good_trace_cycles += stimulus.size();
    result.good_outputs = read_output_words(*recorded, nl.outputs().front());
  }
  const gate::GoodTrace* trace = recorded ? &*recorded : nullptr;

  // Progress counts *finalized* faults — detected, or survived the full
  // stimulus — so the reported sequence climbs monotonically to the
  // total exactly once even though the engine takes several passes. The
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

  // One pass over `indices` through the cycle window [begin, end), run
  // as (batch x time-segment) units sharded dynamically across workers.
  // Each batch runs from reset at reset_point(begin) and counts
  // detections from `begin` on. Each worker owns a private executor (a
  // width-dispatched BatchWorker over the shared schedule); each unit
  // writes its own detection array. The worker that finishes a batch's
  // last segment takes every fault's detect cycle from the earliest
  // segment that saw it, writes the batch's disjoint detect_cycle and
  // finalized entries and its survivor list, and books its stats.
  // Survivor lists are concatenated in batch order afterwards, which
  // makes the returned order — and therefore the batch composition of
  // the next pass — identical to the sequential engine's for any thread
  // count.
  //
  // Segments (segment_count on the window length) split compiled
  // word-compare passes only: a signature is absorbed over the whole
  // stimulus, and the FullSweep reference stays one sequential run per
  // batch. Segment [b, e) starts from reset at reset_point(b) and
  // counts detections from b on; after D cycles every net holds its
  // sequential value, so it detects exactly what the whole-window run
  // detects in [b, e). An unsplit pass is the one-segment case. Units
  // are numbered segment-major: u = segment * num_batches + batch.
  //
  // Cancellation stops workers at unit boundaries: a batch whose
  // segments did not all run leaves its faults unfinalized (and out of
  // the survivor list, so a later pass never touches them either).
  // Batches that finished keep their verdicts — the partial result is
  // valid, just incomplete.
  const std::optional<std::size_t> settle = sched.settle_depth();
  // Where a run whose detections count from cycle b starts from reset:
  // D cycles early, or at 0 on a netlist without a settle depth, whose
  // registers never forget their start state.
  auto reset_point = [&](std::size_t b) {
    return settle ? b - std::min(b, *settle) : 0;
  };
  auto run_pass = [&](const std::vector<std::size_t>& indices,
                      std::size_t begin, std::size_t end, bool final_pass) {
    const std::size_t num_batches = (indices.size() + fpb - 1) / fpb;
    const std::size_t segments =
        trace != nullptr && !sig_on ? segment_count(end - begin, settle) : 1;
    const std::size_t units = num_batches * segments;
    const std::size_t workers =
        std::max<std::size_t>(1, std::min(threads, units));
    std::vector<std::unique_ptr<detail::BatchWorker>> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w)
      pool.push_back(kernel.make_worker(sched));

    std::vector<std::int32_t> unit_detect(units * fpb);
    std::vector<detail::BatchRun> unit_run(units);
    std::vector<std::atomic<std::size_t>> segments_left(num_batches);
    for (auto& left : segments_left)
      left.store(segments, std::memory_order_relaxed);
    std::vector<FaultSimStats> batch_stats(num_batches);
    std::vector<std::vector<std::size_t>> batch_survivors(num_batches);
    const std::size_t reset = reset_point(begin);

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
      // The batch's one unsplit run over the window, from its reset
      // point: up to the last detection when it found every fault and
      // could exit early, else to the window's end.
      const std::size_t sequential =
          (!sig_on && found == count ? last + 1 : end) - reset;
      std::size_t stepped = 0;
      for (std::size_t s = 0; s < segments; ++s)
        stepped += unit_run[s * num_batches + b].stepped;
      FDBIST_ASSERT(stepped >= sequential,
                    "segments stepped fewer cycles than one whole run");
      const std::size_t gates = unit_run[b].gates_per_cycle;
      st.batches += 1;
      st.cycles_simulated += sequential;
      st.cycles_budgeted += end - reset;
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
          const std::size_t seg_begin =
              begin + (end - begin) * s / segments;
          const detail::CycleWindow window{
              reset_point(seg_begin), seg_begin,
              begin + (end - begin) * (s + 1) / segments};
          unit_run[u] = pool[worker]->run_batch(
              faults, stimulus, {indices.data() + base, count}, window,
              trace, unit_detect.data() + u * fpb, opt.signature,
              sig_on ? signature_difference.data() : nullptr);
          if (segments_left[b].fetch_sub(1, std::memory_order_acq_rel) == 1)
            finish_batch(batch_stats[b], b);
        });

    // Per-batch stats merge after the join, in batch order, so even the
    // floating-point cone-fraction sum is the same at every thread
    // count. A batch that never finished books nothing.
    for (const FaultSimStats& st : batch_stats) result.stats.merge(st);

    std::vector<std::size_t> survivors;
    for (const std::vector<std::size_t>& batch : batch_survivors)
      survivors.insert(survivors.end(), batch.begin(), batch.end());
    return survivors;
  };

  auto cancelled = [&] {
    return opt.cancel != nullptr && opt.cancel->cancelled();
  };

  // Site packing: every pass cuts its batches from the fault indices in
  // (gate, site, stuck) order, and survivors keep it. Gate ids are
  // topological and lowering emits an adder's cells together, so
  // neighbours in this order share most of their fan-out cone. The key
  // is a total order on distinct faults, so batch composition — and
  // with it every stats counter — is a function of the fault set, not
  // of the order the caller passed.
  std::vector<std::size_t> pass(faults.size());
  std::iota(pass.begin(), pass.end(), std::size_t{0});
  std::stable_sort(pass.begin(), pass.end(),
                   [&](std::size_t a, std::size_t b) {
                     const Fault& x = faults[a];
                     const Fault& y = faults[b];
                     return std::tie(x.gate, x.site, x.stuck) <
                            std::tie(y.gate, y.site, y.stuck);
                   });

  // The pass plan. Signature mode takes one full-budget pass: the
  // signature is defined over the whole stimulus, so every batch must
  // absorb every vector. Word compare weeds out the easily detected
  // majority over [0, 128) first, so only genuinely hard faults pay for
  // long batches. On a netlist with a settle depth the survivors then
  // climb a ladder of windows [b, 4b), each entered from reset D cycles
  // early and run only over the faults still undetected: the next
  // window is taken while the survivors span more than 4 wide batches;
  // otherwise one pass finishes [b, N). A fault's first detection in
  // [b, e) is its first detection overall, because every earlier
  // detection already took it out of the pass. Without a settle depth
  // the survivors rerun the whole stimulus from reset. The plan depends
  // only on the budget, the settle depth and pass sizes — never on the
  // thread count.
  const std::size_t budget = stimulus.size();
  constexpr std::size_t kWeedOut = 128;
  constexpr std::size_t kWindowGrowth = 4;
  constexpr std::size_t kLadderMinBatches = 4;
  std::size_t begin = 0;
  std::size_t end = sig_on ? budget : std::min(kWeedOut, budget);
  while (true) {
    const bool final_pass = end == budget;
    auto survivors = run_pass(pass, begin, end, final_pass);
    if (final_pass || survivors.empty() || cancelled()) break;
    const bool climb =
        settle.has_value() && end * kWindowGrowth < budget &&
        survivors.size() > kLadderMinBatches * fpb;
    begin = end;
    end = climb ? end * kWindowGrowth : budget;
    pass = std::move(survivors);
  }

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

FaultSimEngine resolve_engine(const gate::Netlist& nl, std::size_t cycles,
                              const FaultSimOptions& opt) {
  if (opt.engine != FaultSimEngine::Auto) return opt.engine;
  const std::size_t lanes =
      detail::batch_kernel(detail::resolve_simd_backend(opt.simd)).lanes();
  return compiled_mem_estimate(nl.size(), cycles,
                               common::resolve_threads(opt.num_threads),
                               lanes) <= kGoodTraceMemCap
             ? FaultSimEngine::Compiled
             : FaultSimEngine::FullSweep;
}

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

} // namespace fdbist::fault
