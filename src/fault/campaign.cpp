#include "fault/campaign.hpp"

#include <algorithm>

#include <unistd.h>

#include "common/check.hpp"
#include "fault/checkpoint.hpp"

namespace fdbist::fault {

namespace {

bool file_exists(const std::string& path) {
  return ::access(path.c_str(), F_OK) == 0;
}

/// A result over the whole universe with no verdict yet.
FaultSimResult universe_shell(std::size_t total, std::size_t vectors,
                              bool sig_on) {
  FaultSimResult r;
  r.total_faults = total;
  r.vectors = vectors;
  r.detect_cycle.assign(total, -1);
  r.finalized.assign(total, 0);
  if (sig_on) r.signature_detect.assign(total, 0);
  return r;
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
  res.sim = universe_shell(total, stimulus.size(), sig_on);

  Checkpoint ck;
  ck.stimulus_len = stimulus.size();
  ck.slice_size = slice;
  ck.family = opt.family;
  ck.sig_width = static_cast<std::uint32_t>(opt.signature.width);
  ck.sig_taps = opt.signature.taps;
  ck.slice_finalized.assign(num_slices, 0);
  if (persist) {
    ck.netlist_fp = fingerprint_netlist(nl);
    ck.stimulus_fp = fingerprint_stimulus(stimulus);
    ck.faults_fp = fingerprint_faults(faults);
  }
  auto finalized_slices = [&] {
    return std::size_t(std::count(ck.slice_finalized.begin(),
                                  ck.slice_finalized.end(), 1));
  };

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

    // Reconstitute the checkpoint's finalized slices as one partial
    // result and run it through the audited merge — the same path the
    // freshly simulated verdicts take, so resume cannot drift from it.
    ck.slice_finalized = old.slice_finalized;
    res.resumed_slices = finalized_slices();
    FaultSimResult restored = universe_shell(total, stimulus.size(), sig_on);
    restored.detect_cycle = old.detect_cycle;
    if (sig_on) restored.signature_detect = old.signature_detect;
    for (std::size_t i = 0; i < total; ++i)
      restored.finalized[i] = ck.slice_finalized[i / slice];
    if (auto merged = res.sim.merge(restored, 0); !merged)
      return merged.error();
  }

  // Local token chains the caller's kill switch under this call's
  // deadline; workers poll it at batch boundaries.
  common::CancelToken token(opt.cancel);
  if (opt.deadline_s > 0) token.set_deadline_after(opt.deadline_s);

  // One simulate_faults call over the faults of every slice the
  // checkpoint has not finalized (on a fresh run, the universe itself)
  // runs the one-shot pass plan: one weed-out, one survivor tail, one
  // compile and good trace (or the caller's artifact). Slices are the
  // unit the checkpoint records, not a unit of work.
  std::vector<std::size_t> pending; // universe index of each run fault
  for (std::size_t i = 0; i < total; ++i)
    if (!ck.slice_finalized[i / slice]) pending.push_back(i);
  if (!pending.empty() && !token.cancelled()) {
    std::vector<Fault> gathered;
    std::span<const Fault> run_faults = faults;
    if (pending.size() != total) {
      for (const std::size_t i : pending) gathered.push_back(faults[i]);
      run_faults = gathered;
    }
    FaultSimOptions fopt = opt;
    fopt.cancel = &token;
    const FaultSimResult part =
        simulate_faults(nl, stimulus, run_faults, fopt);
    // Whatever the call finalized (everything, or what a cancelled run
    // reached) goes back to its universe index through the audited
    // merge, stats and good outputs included.
    FaultSimResult scattered = universe_shell(total, stimulus.size(), sig_on);
    scattered.good_outputs = part.good_outputs;
    scattered.stats = part.stats;
    for (std::size_t j = 0; j < pending.size(); ++j) {
      if (!part.finalized[j]) continue;
      const std::size_t i = pending[j];
      scattered.detect_cycle[i] = part.detect_cycle[j];
      scattered.finalized[i] = 1;
      if (sig_on) scattered.signature_detect[i] = part.signature_detect[j];
    }
    if (auto merged = res.sim.merge(scattered, 0); !merged)
      return merged.error();
  }

  // A slice is finalized once every fault in it carries a verdict. The
  // checkpoint records only such slices, which is what makes resume
  // bit-identical; it is saved once, when this call finalized a slice.
  ck.slice_finalized.assign(num_slices, 1);
  for (std::size_t i = 0; i < total; ++i)
    if (!res.sim.finalized[i]) ck.slice_finalized[i / slice] = 0;
  res.completed_slices = finalized_slices() - res.resumed_slices;
  if (persist && res.completed_slices > 0) {
    ck.detect_cycle.assign(total, -1);
    if (sig_on) ck.signature_detect.assign(total, 0);
    for (std::size_t i = 0; i < total; ++i) {
      if (!ck.slice_finalized[i / slice]) continue;
      ck.detect_cycle[i] = res.sim.detect_cycle[i];
      if (sig_on) ck.signature_detect[i] = res.sim.signature_detect[i];
    }
    auto saved = save_checkpoint(opt.checkpoint_path, ck);
    if (!saved) return saved.error();
    ++res.checkpoints_written;
  }

  // merge() maintained `detected` incrementally; only the completeness
  // flag and, for a run cut short, its reason are left to settle.
  res.sim.complete = res.sim.finalized_count() == total;
  if (!res.sim.complete) res.stop_reason = token.reason();
  return res;
}

} // namespace fdbist::fault
