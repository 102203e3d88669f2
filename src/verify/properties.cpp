#include "verify/properties.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <span>
#include <string>

#include "common/env.hpp"
#include "common/xoshiro.hpp"
#include "fault/campaign.hpp"
#include "fault/fault.hpp"
#include "fault/schedule_cache.hpp"
#include "fixedpoint/format.hpp"
#include "gate/lower.hpp"
#include "rtl/sim.hpp"
#include "tpg/lfsr.hpp"

namespace fdbist::verify {

namespace {

struct LoweredCase {
  rtl::FilterDesign design;
  gate::LoweredDesign low;
  std::vector<std::int64_t> stim;
  std::vector<fault::Fault> faults;
};

LoweredCase prepare(const FilterCase& c) {
  LoweredCase lc{build_filter(c), {}, filter_stimulus(c), {}};
  lc.low = gate::lower(lc.design.graph);
  const auto universe = fault::order_for_simulation(
      fault::enumerate_adder_faults(lc.low), lc.low.netlist,
      lc.design.graph);
  lc.faults = select_faults(c.fault_indices, universe);
  return lc;
}

/// A seed derived from the case spec alone, so a replayed or minimized
/// case draws the same random choices.
std::uint64_t spec_seed(const FilterCase& c) {
  std::uint64_t h = common::mix_seed(c.vectors);
  for (const double v : c.coefs)
    h = common::mix_seed(h ^ std::bit_cast<std::uint64_t>(v));
  for (const std::uint32_t i : c.fault_indices) h = common::mix_seed(h ^ i);
  return h;
}

} // namespace

namespace {

/// Lane-wise arithmetic over a decimator's packed input word. The
/// packed word is not a single two's-complement number as far as the
/// datapath is concerned — each lane_width slice is an independent
/// sample — so halving and adding for the superposition identity must
/// happen per lane; a whole-word shift would leak bits across lane
/// boundaries.
std::int64_t lanewise_halve(std::int64_t x, int lanes, int lw) {
  std::int64_t out = 0;
  const std::int64_t mask = (std::int64_t{1} << lw) - 1;
  for (int m = 0; m < lanes; ++m) {
    const std::int64_t lane =
        fx::wrap(x >> (m * lw), fx::Format{lw, lw - 1});
    out |= ((lane >> 1) & mask) << (m * lw);
  }
  return fx::wrap(out, fx::Format{lanes * lw, lw - 1});
}

std::int64_t lanewise_add(std::int64_t a, std::int64_t b, int lanes,
                          int lw) {
  std::int64_t out = 0;
  const std::int64_t mask = (std::int64_t{1} << lw) - 1;
  for (int m = 0; m < lanes; ++m) {
    const std::int64_t la =
        fx::wrap(a >> (m * lw), fx::Format{lw, lw - 1});
    const std::int64_t lb =
        fx::wrap(b >> (m * lw), fx::Format{lw, lw - 1});
    out |= ((la + lb) & mask) << (m * lw);
  }
  return fx::wrap(out, fx::Format{lanes * lw, lw - 1});
}

} // namespace

Finding check_superposition(const FilterCase& c) {
  const rtl::FilterDesign d = build_filter(c);
  const auto stim = filter_stimulus(c);
  const rtl::NodeId out = d.output;
  const auto& lin = d.linear[std::size_t(out)];
  // Three independent runs each accrue up to trunc_slack of truncation
  // error; anything beyond their sum (plus an LSB of round-off head
  // room) breaks linearity for a reason truncation cannot explain.
  // Feedback families (IIR) recirculate truncation error, and their
  // analysis closes the loop over a finite window — tail_bound is the
  // per-run slack for the mass beyond it, zero for feed-forward
  // families, which keeps this the exact FIR budget when there is no
  // feedback.
  const double bound = 3.0 * (lin.trunc_slack + lin.tail_bound) +
                       4.0 * d.graph.node(out).fmt.lsb();

  const bool packed = d.family == rtl::DesignFamily::PolyphaseDecimator;
  const int lanes = packed ? static_cast<int>(d.sections) : 1;
  const int lw = packed ? d.lane_width : 0;

  rtl::Simulator s1(d.graph), s2(d.graph), s12(d.graph);
  const std::size_t n = stim.size();
  for (std::size_t i = 0; i < n; ++i) {
    // Half-amplitude operands: an arithmetic halving keeps each within
    // half the input range, so x1 + x2 is always representable. For the
    // decimator both operations act per packed lane.
    const std::int64_t x1 =
        packed ? lanewise_halve(stim[i], lanes, lw) : stim[i] >> 1;
    const std::int64_t x2 = packed
                                ? lanewise_halve(stim[n - 1 - i], lanes, lw)
                                : stim[n - 1 - i] >> 1;
    s1.step(x1);
    s2.step(x2);
    s12.step(packed ? lanewise_add(x1, x2, lanes, lw) : x1 + x2);
    const double y1 = s1.real(out);
    const double y2 = s2.real(out);
    const double y12 = s12.real(out);
    const double residual = std::abs(y12 - (y1 + y2));
    if (residual > bound)
      return Finding::fail(
          "superposition: |y(x1+x2) - y(x1) - y(x2)| = " +
          std::to_string(residual) + " > " + std::to_string(bound) +
          " at cycle " + std::to_string(i));
  }
  return Finding::ok();
}

Finding check_prefix_dominance(const FilterCase& c) {
  const LoweredCase lc = prepare(c);
  if (lc.faults.empty() || lc.stim.size() < 2) return Finding::ok();

  fault::FaultSimOptions opt;
  opt.num_threads = 1;
  const auto full = simulate_faults(lc.low.netlist, lc.stim, lc.faults, opt);
  const std::size_t prefix_len = lc.stim.size() / 2;
  const auto prefix = simulate_faults(
      lc.low.netlist,
      std::span<const std::int64_t>(lc.stim.data(), prefix_len), lc.faults,
      opt);

  for (std::size_t i = 0; i < lc.faults.size(); ++i) {
    const std::int32_t f = full.detect_cycle[i];
    const std::int32_t p = prefix.detect_cycle[i];
    // Detection at cycle t reads only vectors [0, t], so the two runs
    // must agree on everything the prefix can see.
    const std::int32_t expected =
        (f >= 0 && static_cast<std::size_t>(f) < prefix_len) ? f : -1;
    if (p != expected)
      return Finding::fail(
          "prefix-dominance: fault " + std::to_string(i) + ": full run " +
          std::to_string(f) + ", prefix run " + std::to_string(p) +
          " (expected " + std::to_string(expected) + " with prefix " +
          std::to_string(prefix_len) + ")");
  }
  return Finding::ok();
}

Finding check_mixed_engine_resume(const FilterCase& c,
                                  const std::string& checkpoint_path) {
  const LoweredCase lc = prepare(c);
  if (lc.faults.size() < 4) return Finding::ok();

  fault::FaultSimOptions ref_opt;
  ref_opt.num_threads = 1;
  ref_opt.engine = fault::FaultSimEngine::FullSweep;
  const auto ref =
      simulate_faults(lc.low.netlist, lc.stim, lc.faults, ref_opt);

  // First leg: FullSweep engine, small slices, killed after the first
  // slice has been checkpointed.
  const std::size_t slice = std::max<std::size_t>(1, lc.faults.size() / 4);
  common::CancelToken token;
  fault::CampaignOptions first;
  first.num_threads = 1;
  first.engine = fault::FaultSimEngine::FullSweep;
  first.checkpoint_every = slice;
  first.checkpoint_path = checkpoint_path;
  first.cancel = &token;
  first.progress = [&](std::size_t done, std::size_t) {
    if (done >= slice) token.cancel();
  };
  auto leg1 = run_campaign(lc.low.netlist, lc.stim, lc.faults, first);
  if (!leg1)
    return Finding::fail("mixed-resume: first leg error " +
                         leg1.error().to_string());
  if (leg1->sim.complete)
    // The kill landed after the campaign finished; nothing to resume,
    // but the verdicts must still match the reference.
    return leg1->sim.detect_cycle == ref.detect_cycle
               ? Finding::ok()
               : Finding::fail("mixed-resume: uninterrupted campaign "
                               "diverged from one-shot verdicts");

  // Second leg: resume the same checkpoint under the Compiled engine.
  fault::CampaignOptions second;
  second.num_threads = 1;
  second.engine = fault::FaultSimEngine::Compiled;
  second.checkpoint_every = slice;
  second.checkpoint_path = checkpoint_path;
  second.resume = true;
  auto leg2 = run_campaign(lc.low.netlist, lc.stim, lc.faults, second);
  if (!leg2)
    return Finding::fail("mixed-resume: resume leg error " +
                         leg2.error().to_string());
  if (!leg2->sim.complete)
    return Finding::fail("mixed-resume: resume leg stopped early");
  if (leg2->resumed_slices == 0)
    return Finding::fail("mixed-resume: resume leg restored no slices");
  if (leg2->sim.detect_cycle != ref.detect_cycle ||
      leg2->sim.detected != ref.detected)
    return Finding::fail(
        "mixed-resume: FullSweep-then-Compiled campaign verdicts differ "
        "from the one-shot reference");
  return Finding::ok();
}

Finding check_signature_compaction(const FilterCase& c, int sig_width) {
  const LoweredCase lc = prepare(c);
  if (lc.faults.empty()) return Finding::ok();

  fault::SignatureOptions sig;
  sig.width = sig_width;
  sig.taps = tpg::default_polynomial(sig_width).low_terms;

  // Word-compare ground truth, then the compacted runs on each engine.
  fault::FaultSimOptions ref_opt;
  ref_opt.num_threads = 1;
  ref_opt.engine = fault::FaultSimEngine::FullSweep;
  const auto ref =
      simulate_faults(lc.low.netlist, lc.stim, lc.faults, ref_opt);

  fault::FaultSimOptions sweep_opt = ref_opt;
  sweep_opt.signature = sig;
  const auto sweep =
      simulate_faults(lc.low.netlist, lc.stim, lc.faults, sweep_opt);

  fault::FaultSimOptions cone_opt = sweep_opt;
  cone_opt.engine = fault::FaultSimEngine::Compiled;
  const auto cone =
      simulate_faults(lc.low.netlist, lc.stim, lc.faults, cone_opt);

  // Compaction must not perturb the word-compare verdicts: the
  // signature rides alongside detection, it never replaces it.
  if (sweep.detect_cycle != ref.detect_cycle ||
      cone.detect_cycle != ref.detect_cycle)
    return Finding::fail(
        "signature-compaction: enabling the MISR changed word-compare "
        "detect cycles");
  if (sweep.signature_detect.size() != lc.faults.size() ||
      cone.signature_detect != sweep.signature_detect)
    return Finding::fail(
        "signature-compaction: Compiled and FullSweep engines disagree "
        "on signature verdicts");

  std::size_t aliased = 0;
  for (std::size_t i = 0; i < lc.faults.size(); ++i) {
    if (sweep.signature_detect[i] != 0 && sweep.detect_cycle[i] < 0)
      return Finding::fail(
          "signature-compaction: fault " + std::to_string(i) +
          " has a signature mismatch but an identical response stream");
    if (sweep.detect_cycle[i] >= 0 && sweep.signature_detect[i] == 0)
      ++aliased;
  }
  // Expected rate 2^-width per detected fault, 64x slack, absolute
  // floor of two so a fluke on a small sample cannot fire.
  const double expected =
      double(sweep.detected) * std::pow(2.0, -double(sig_width));
  const double allowed = 2.0 + 64.0 * expected;
  if (double(aliased) > allowed)
    return Finding::fail(
        "signature-compaction: " + std::to_string(aliased) + " of " +
        std::to_string(sweep.detected) +
        " detected faults aliased in the width-" +
        std::to_string(sig_width) + " signature (allowed ~" +
        std::to_string(allowed) + ")");
  return Finding::ok();
}

Finding check_sliced_merge(const FilterCase& c) {
  const LoweredCase lc = prepare(c);
  const std::size_t n = lc.faults.size();
  if (n < 4) return Finding::ok();

  fault::FaultSimOptions opt;
  opt.num_threads = 1;
  const auto ref = simulate_faults(lc.low.netlist, lc.stim, lc.faults, opt);

  // A case-derived slice size that leaves a ragged last slice on every
  // sample larger than six faults.
  const std::size_t slice = 1 + n / 3;
  std::vector<std::size_t> offsets;
  for (std::size_t lo = 0; lo < n; lo += slice) offsets.push_back(lo);
  // Merge is order-independent over disjoint slices: arrive shuffled.
  Xoshiro256 rng(spec_seed(c));
  for (std::size_t i = offsets.size(); i > 1; --i)
    std::swap(offsets[i - 1], offsets[rng.below(i)]);

  fault::FaultSimResult merged;
  merged.total_faults = n;
  merged.vectors = lc.stim.size();
  merged.detect_cycle.assign(n, -1);
  merged.finalized.assign(n, 0);
  const std::span<const fault::Fault> faults(lc.faults);
  for (const std::size_t lo : offsets) {
    const auto part = simulate_faults(
        lc.low.netlist, lc.stim, faults.subspan(lo, std::min(slice, n - lo)),
        opt);
    if (auto ok = merged.merge(part, lo); !ok)
      return Finding::fail("sliced-merge: slice at fault " +
                           std::to_string(lo) + " refused (" +
                           ok.error().to_string() + ")");
  }
  if (merged.finalized_count() != n)
    return Finding::fail("sliced-merge: " +
                         std::to_string(n - merged.finalized_count()) +
                         " faults have no verdict after the last merge");
  if (merged.detect_cycle != ref.detect_cycle ||
      merged.detected != ref.detected)
    return Finding::fail(
        "sliced-merge: merged slice verdicts differ from the one-shot "
        "reference");
  return Finding::ok();
}

Finding check_cached_artifact(const FilterCase& c) {
  const LoweredCase lc = prepare(c);
  if (lc.faults.empty()) return Finding::ok();

  // Compile-from-scratch references on both engines. If these already
  // disagree the cache is innocent — report it as an engine divergence.
  fault::FaultSimOptions sweep_opt;
  sweep_opt.num_threads = 1;
  sweep_opt.engine = fault::FaultSimEngine::FullSweep;
  const auto sweep =
      simulate_faults(lc.low.netlist, lc.stim, lc.faults, sweep_opt);

  fault::FaultSimOptions cone_opt;
  cone_opt.num_threads = 1;
  cone_opt.engine = fault::FaultSimEngine::Compiled;
  const auto scratch =
      simulate_faults(lc.low.netlist, lc.stim, lc.faults, cone_opt);
  if (scratch.detect_cycle != sweep.detect_cycle)
    return Finding::fail(
        "cached-artifact: engines disagree before any artifact is "
        "involved");

  // Fresh artifact handle.
  const auto art = fault::build_artifact(lc.low.netlist, lc.stim);
  if (art == nullptr)
    return Finding::fail("cached-artifact: build_artifact returned null");
  cone_opt.artifact = art;
  const auto warm =
      simulate_faults(lc.low.netlist, lc.stim, lc.faults, cone_opt);
  if (warm.detect_cycle != scratch.detect_cycle ||
      warm.detected != scratch.detected)
    return Finding::fail(
        "cached-artifact: fresh-built artifact changed verdicts");
  if (warm.stats.schedule_compilations != 0 ||
      warm.stats.good_trace_cycles != 0)
    return Finding::fail(
        "cached-artifact: the artifact path still did preparation work");

  // The FDBA interchange round trip — what a disk hit actually runs.
  const auto bytes = fault::serialize_artifact(*art);
  auto back = fault::deserialize_artifact(bytes, art->key);
  if (!back)
    return Finding::fail("cached-artifact: round trip refused: " +
                         back.error().to_string());
  cone_opt.artifact = *back;
  const auto loaded =
      simulate_faults(lc.low.netlist, lc.stim, lc.faults, cone_opt);
  if (loaded.detect_cycle != scratch.detect_cycle ||
      loaded.detected != scratch.detected)
    return Finding::fail(
        "cached-artifact: deserialized artifact changed verdicts");
  return Finding::ok();
}

} // namespace fdbist::verify
