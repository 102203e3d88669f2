#include "verify/properties.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <string>

#include "fault/campaign.hpp"
#include "fault/checkpoint.hpp"
#include "fault/fault.hpp"
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

  // First leg: a FullSweep campaign, run to the end. Its checkpoint is
  // then cut back to the first quarter of the faults: the file a call
  // cut short after finalizing them leaves, made deterministic.
  const std::size_t kept = std::max<std::size_t>(1, lc.faults.size() / 4);
  fault::CampaignOptions first;
  first.num_threads = 1;
  first.engine = fault::FaultSimEngine::FullSweep;
  first.checkpoint_path = checkpoint_path;
  auto leg1 = run_campaign(lc.low.netlist, lc.stim, lc.faults, first);
  if (!leg1)
    return Finding::fail("mixed-resume: first leg error " +
                         leg1.error().to_string());
  if (!leg1->sim.complete || leg1->sim.detect_cycle != ref.detect_cycle)
    return Finding::fail("mixed-resume: FullSweep campaign diverged from "
                         "the one-shot verdicts");
  auto ck = fault::load_checkpoint(checkpoint_path);
  if (!ck)
    return Finding::fail("mixed-resume: first leg checkpoint unreadable: " +
                         ck.error().to_string());
  for (std::size_t i = kept; i < ck->fault_count(); ++i) {
    ck->finalized[i] = 0;
    ck->detect_cycle[i] = -1;
  }
  if (auto saved = fault::save_checkpoint(checkpoint_path, *ck); !saved)
    return Finding::fail("mixed-resume: rewriting the checkpoint failed: " +
                         saved.error().to_string());

  // Second leg: resume the same checkpoint under the Compiled engine.
  fault::CampaignOptions second;
  second.num_threads = 1;
  second.engine = fault::FaultSimEngine::Compiled;
  second.checkpoint_path = checkpoint_path;
  second.resume = true;
  auto leg2 = run_campaign(lc.low.netlist, lc.stim, lc.faults, second);
  if (!leg2)
    return Finding::fail("mixed-resume: resume leg error " +
                         leg2.error().to_string());
  if (!leg2->sim.complete)
    return Finding::fail("mixed-resume: resume leg stopped early");
  if (leg2->resumed_faults != kept)
    return Finding::fail("mixed-resume: resume leg restored " +
                         std::to_string(leg2->resumed_faults) + " faults, " +
                         "the checkpoint holds " + std::to_string(kept));
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

Finding check_slice_verdicts(const FilterCase& c) {
  const LoweredCase lc = prepare(c);
  const std::size_t n = lc.faults.size();
  if (n < 4) return Finding::ok();

  fault::FaultSimOptions opt;
  opt.num_threads = 1;
  const auto ref = simulate_faults(lc.low.netlist, lc.stim, lc.faults, opt);

  // Thirds of 1 + n/3 faults leave a ragged last one on every sample
  // larger than six faults.
  const std::size_t slice = 1 + n / 3;
  const std::span<const fault::Fault> faults(lc.faults);
  for (std::size_t lo = 0; lo < n; lo += slice) {
    const std::size_t count = std::min(slice, n - lo);
    const auto part = simulate_faults(lc.low.netlist, lc.stim,
                                      faults.subspan(lo, count), opt);
    for (std::size_t j = 0; j < count; ++j)
      if (!part.finalized[j] ||
          part.detect_cycle[j] != ref.detect_cycle[lo + j])
        return Finding::fail(
            "slice-verdicts: fault " + std::to_string(lo + j) +
            " simulated with faults [" + std::to_string(lo) + ", " +
            std::to_string(lo + count) + ") reads " +
            std::to_string(part.detect_cycle[j]) + ", one-shot " +
            std::to_string(ref.detect_cycle[lo + j]));
  }
  return Finding::ok();
}

} // namespace fdbist::verify
