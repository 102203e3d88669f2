#include "fault/campaign.hpp"

#include <unistd.h>

#include "common/check.hpp"
#include "fault/checkpoint.hpp"

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
  FDBIST_REQUIRE(opt.deadline_s >= 0, "deadline must be non-negative");

  const std::size_t total = faults.size();
  const bool persist = !opt.checkpoint_path.empty();
  const bool sig_on = opt.signature.enabled();

  // The whole universe with no verdict yet; restored and freshly
  // simulated verdicts land here by universe index.
  CampaignResult res;
  FaultSimResult& sim = res.sim;
  sim.total_faults = total;
  sim.vectors = stimulus.size();
  sim.detect_cycle.assign(total, -1);
  sim.finalized.assign(total, 0);
  if (sig_on) sim.signature_detect.assign(total, 0);

  Checkpoint ck;
  ck.stimulus_len = stimulus.size();
  ck.family = opt.family;
  ck.sig_width = static_cast<std::uint32_t>(opt.signature.width);
  ck.sig_taps = opt.signature.taps;
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
    if (old.family != ck.family)
      return refuse("design family " + std::to_string(old.family) +
                    " differs from " + std::to_string(ck.family));
    if (old.sig_width != ck.sig_width || old.sig_taps != ck.sig_taps)
      return refuse("signature configuration differs");

    for (std::size_t i = 0; i < total; ++i) {
      if (!old.finalized[i]) continue;
      sim.detect_cycle[i] = old.detect_cycle[i];
      sim.finalized[i] = 1;
      if (sig_on) sim.signature_detect[i] = old.signature_detect[i];
      ++res.resumed_faults;
    }
  }

  // Local token chains the caller's kill switch under this call's
  // deadline; workers poll it at batch boundaries.
  common::CancelToken token(opt.cancel);
  if (opt.deadline_s > 0) token.set_deadline_after(opt.deadline_s);

  // One simulate_faults call over every fault the checkpoint has not
  // finalized (on a fresh run, the universe itself) runs the one-shot
  // pass plan: one weed-out, one survivor tail, one compile and good
  // trace. Whatever it finalized (everything, or what a cancelled call
  // reached) goes back to its universe index.
  std::vector<std::size_t> pending; // universe index of each run fault
  for (std::size_t i = 0; i < total; ++i)
    if (!sim.finalized[i]) pending.push_back(i);
  if (!pending.empty() && !token.cancelled()) {
    std::vector<Fault> gathered;
    std::span<const Fault> run_faults = faults;
    if (pending.size() != total) {
      for (const std::size_t i : pending) gathered.push_back(faults[i]);
      run_faults = gathered;
    }
    FaultSimOptions fopt = opt;
    fopt.cancel = &token;
    FaultSimResult part = simulate_faults(nl, stimulus, run_faults, fopt);
    sim.good_outputs = std::move(part.good_outputs);
    sim.stats = part.stats;
    for (std::size_t j = 0; j < pending.size(); ++j) {
      if (!part.finalized[j]) continue;
      const std::size_t i = pending[j];
      sim.detect_cycle[i] = part.detect_cycle[j];
      sim.finalized[i] = 1;
      if (sig_on) sim.signature_detect[i] = part.signature_detect[j];
    }
  }
  for (const std::int32_t c : sim.detect_cycle)
    if (c >= 0) ++sim.detected;
  const std::size_t finalized = sim.finalized_count();

  // The checkpoint records every fault that carries a verdict, which is
  // what makes resume bit-identical; it is saved once, when this call
  // finalized a fault.
  if (persist && finalized > res.resumed_faults) {
    ck.finalized = sim.finalized;
    ck.detect_cycle = sim.detect_cycle;
    ck.signature_detect = sim.signature_detect;
    auto saved = save_checkpoint(opt.checkpoint_path, ck);
    if (!saved) return saved.error();
    ++res.checkpoints_written;
  }

  sim.complete = finalized == total;
  if (!sim.complete) res.stop_reason = token.reason();
  return res;
}

} // namespace fdbist::fault
