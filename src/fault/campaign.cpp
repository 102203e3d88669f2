#include "fault/campaign.hpp"

#include <algorithm>

#include <unistd.h>

#include "common/check.hpp"
#include "fault/checkpoint.hpp"
#include "fault/schedule_cache.hpp"

namespace fdbist::fault {

namespace {

bool file_exists(const std::string& path) {
  return ::access(path.c_str(), F_OK) == 0;
}

} // namespace

Expected<CampaignResult> run_campaign(const gate::Netlist& nl,
                                      std::span<const std::int64_t> stimulus,
                                      std::span<const Fault> faults,
                                      const CampaignOptions& opt) {
  FDBIST_REQUIRE(opt.checkpoint_every > 0,
                 "checkpoint_every must be positive");
  FDBIST_REQUIRE(opt.deadline_s >= 0, "deadline must be non-negative");

  const std::size_t total = faults.size();
  const std::size_t slice = opt.checkpoint_every;
  const std::size_t num_slices = (total + slice - 1) / slice;
  const bool persist = !opt.checkpoint_path.empty();

  const bool sig_on = opt.signature.enabled();

  CampaignResult res;
  res.sim.total_faults = total;
  res.sim.vectors = stimulus.size();
  res.sim.detect_cycle.assign(total, -1);
  res.sim.finalized.assign(total, 0);
  if (sig_on) res.sim.signature_detect.assign(total, 0);

  Checkpoint ck;
  ck.stimulus_len = stimulus.size();
  ck.slice_size = slice;
  ck.family = opt.family;
  ck.sig_width = static_cast<std::uint32_t>(opt.signature.width);
  ck.sig_taps = opt.signature.taps;
  ck.slice_finalized.assign(num_slices, 0);
  ck.detect_cycle.assign(total, -1);
  if (sig_on) ck.signature_detect.assign(total, 0);
  if (persist) {
    ck.netlist_fp = fingerprint_netlist(nl);
    ck.stimulus_fp = fingerprint_stimulus(stimulus);
    ck.faults_fp = fingerprint_faults(faults);
  }

  if (persist && opt.resume && file_exists(opt.checkpoint_path)) {
    auto loaded = load_checkpoint(opt.checkpoint_path);
    if (!loaded) return loaded.error();
    const Checkpoint& old = *loaded;
    auto refuse = [&](const std::string& what) {
      return Error{ErrorCode::FingerprintMismatch,
                   opt.checkpoint_path +
                       " was written by a different campaign (" + what +
                       "); delete it to start over"};
    };
    if (old.netlist_fp != ck.netlist_fp) return refuse("netlist differs");
    if (old.stimulus_fp != ck.stimulus_fp ||
        old.stimulus_len != ck.stimulus_len)
      return refuse("stimulus differs");
    if (old.faults_fp != ck.faults_fp || old.fault_count() != total)
      return refuse("fault universe differs");
    if (old.slice_size != slice)
      return refuse("checkpoint_every was " + std::to_string(old.slice_size) +
                    ", now " + std::to_string(slice));
    if (old.family != ck.family)
      return refuse("design family " + std::to_string(old.family) +
                    " differs from " + std::to_string(ck.family));
    if (old.sig_width != ck.sig_width || old.sig_taps != ck.sig_taps)
      return refuse("signature configuration differs");

    ck.slice_finalized = old.slice_finalized;
    // Reconstitute the checkpoint's finalized slices as one partial
    // result and run it through the audited merge — the same path
    // freshly computed slices take, so resume cannot drift from it.
    FaultSimResult restored;
    restored.total_faults = total;
    restored.vectors = stimulus.size();
    restored.detect_cycle.assign(total, -1);
    restored.finalized.assign(total, 0);
    if (sig_on) restored.signature_detect.assign(total, 0);
    for (std::size_t s = 0; s < num_slices; ++s) {
      if (!ck.slice_finalized[s]) continue;
      const std::size_t lo = s * slice;
      const std::size_t hi = std::min(total, lo + slice);
      for (std::size_t i = lo; i < hi; ++i) {
        ck.detect_cycle[i] = old.detect_cycle[i];
        restored.detect_cycle[i] = old.detect_cycle[i];
        restored.finalized[i] = 1;
        if (sig_on) {
          ck.signature_detect[i] = old.signature_detect[i];
          restored.signature_detect[i] = old.signature_detect[i];
        }
      }
      ++res.resumed_slices;
    }
    if (auto merged = res.sim.merge(restored, 0); !merged)
      return merged.error();
  }

  // Local token chains the caller's kill switch under this call's
  // deadline; workers poll it at batch boundaries.
  common::CancelToken token(opt.cancel);
  if (opt.deadline_s > 0) token.set_deadline_after(opt.deadline_s);

  std::size_t finalized_before = res.sim.finalized_count();

  // Every slice runs the caller's FaultSimOptions, sharing one artifact
  // and the local token, with progress rebased to the campaign's global
  // count. The artifact is the caller's, or one built just before the
  // first slice that runs, so the slices skip schedule compilation and
  // trace recording entirely. A campaign with no slice left to run, or
  // whose slices resolve to the FullSweep engine, builds none.
  FaultSimOptions fopt = opt;
  fopt.cancel = &token;
  const bool build = opt.artifact == nullptr &&
                     resolve_engine(nl, stimulus.size(), opt) ==
                         FaultSimEngine::Compiled;
  if (opt.progress)
    fopt.progress = [&](std::size_t done, std::size_t) {
      opt.progress(finalized_before + done, total);
    };

  for (std::size_t s = 0; s < num_slices; ++s) {
    if (ck.slice_finalized[s]) continue;
    if (token.cancelled()) {
      res.stop_reason = token.reason();
      break;
    }
    if (build && fopt.artifact == nullptr)
      fopt.artifact = build_artifact(nl, stimulus, &res.sim.stats);
    const std::size_t lo = s * slice;
    const std::size_t hi = std::min(total, lo + slice);
    const FaultSimResult part =
        simulate_faults(nl, stimulus, faults.subspan(lo, hi - lo), fopt);
    // The audited merge absorbs whatever verdicts the slice finalized
    // (all of them, or a cancelled prefix) and folds in stats; the
    // checkpoint mirrors only the finalized entries.
    if (auto merged = res.sim.merge(part, lo); !merged)
      return merged.error();
    for (std::size_t i = lo; i < hi; ++i) {
      if (!part.finalized[i - lo]) continue;
      ck.detect_cycle[i] = part.detect_cycle[i - lo];
      if (sig_on) ck.signature_detect[i] = part.signature_detect[i - lo];
    }
    if (!part.complete) {
      // Cancelled mid-slice: keep the partial verdicts in the returned
      // result but do not finalize the slice — the checkpoint only ever
      // records slices whose every fault has a verdict, which is what
      // makes resume bit-identical.
      res.stop_reason = token.reason();
      break;
    }

    ck.slice_finalized[s] = 1;
    ++res.completed_slices;
    finalized_before += hi - lo;
    if (persist) {
      auto saved = save_checkpoint(opt.checkpoint_path, ck);
      if (!saved) return saved.error();
      ++res.checkpoints_written;
    }
  }

  // merge() maintained `detected` incrementally; only the completeness
  // flag is left to settle.
  res.sim.complete = res.sim.finalized_count() == total;
  return res;
}

} // namespace fdbist::fault
