// Shared helpers for the experiment harnesses in bench/.
//
// Every binary regenerates one or more tables or figures of the paper
// (paper_grid: Tables 3-6 and Figures 10-13) and prints the measured
// rows next to the paper's published values. Absolute
// numbers differ (our substrate re-derives the designs from scratch);
// the *shape* — who wins, by what factor, where the crossovers fall —
// is the reproduction target (see EXPERIMENTS.md).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>

#include <unistd.h>

#include "bist/kit.hpp"
#include "common/parse.hpp"

namespace fdbist::bench {

/// Vector-budget divisor: set REPRO_FAST=1 for quick smoke runs (8x
/// fewer vectors; numbers will differ from EXPERIMENTS.md).
inline std::size_t budget(std::size_t full) {
  const char* fast = std::getenv("REPRO_FAST");
  if (fast != nullptr && fast[0] != '\0' && fast[0] != '0')
    return full / 8 > 16 ? full / 8 : 16;
  return full;
}

/// Fault-simulation worker threads: FDBIST_THREADS env var overrides;
/// default 0 = one worker per hardware thread. Results are bit-identical
/// for any value (see fault/simulator.hpp), so the experiment tables are
/// unaffected by the choice. A malformed value is a hard usage error
/// (exit 2), not a silent fallback — the old strtoul path read
/// "abc" as 0 and quietly changed the worker count.
inline std::size_t threads() {
  const char* t = std::getenv("FDBIST_THREADS");
  if (t == nullptr || t[0] == '\0') return 0;
  const auto v = common::parse_size(t, "FDBIST_THREADS", 0, 4096);
  if (!v) {
    std::fprintf(stderr, "bench: %s\n", v.error().to_string().c_str());
    std::exit(2);
  }
  return *v;
}

inline void heading(const std::string& title) {
  std::printf("\n==== %s ====\n", title.c_str());
}

/// One-line engine observability summary (FaultSimResult::stats): which
/// batch kernel ran and how much of the naive full sweep it skipped via
/// cone restriction and early exit. Purely informational — verdicts are
/// engine-independent — but it puts the kernel's work next to the
/// numbers it produced, so a perf regression is visible in bench logs.
inline void engine_stats(const std::string& label,
                         const fault::FaultSimStats& s) {
  if (s.batches == 0) return;
  std::printf("  [%s: %s engine, %llu batches, mean cone %.1f%%, "
              "gate-eval savings %.1f%%, early exit %.0f cyc/batch]\n",
              label.c_str(), fault::fault_sim_engine_name(s.engine),
              static_cast<unsigned long long>(s.batches),
              100.0 * s.mean_cone_fraction(), 100.0 * s.gate_eval_savings(),
              s.mean_early_exit_cycles());
}

inline void note(const std::string& text) {
  std::printf("  %s\n", text.c_str());
}

/// Progress ticker on stderr for long fault-simulation sweeps. Only
/// emitted when stderr is an interactive terminal, so redirected bench
/// logs stay free of carriage-return spam.
inline void progress(const char* label, std::size_t done, std::size_t total) {
  if (total == 0 || isatty(fileno(stderr)) == 0) return;
  const int pct = static_cast<int>(100 * done / total);
  std::fprintf(stderr, "\r  [%s] %3d%%", label, pct);
  if (done >= total) std::fprintf(stderr, "\n");
  std::fflush(stderr);
}

/// One BIST evaluation on the bench's worker count, with a progress
/// ticker labelled `label`. Every sweep finishes in seconds, so it runs
/// in memory; `fdbist_cli campaign` is the checkpointed path.
inline bist::BistReport evaluate(const bist::BistKit& kit,
                                 tpg::Generator& gen, std::size_t vectors,
                                 const std::string& label) {
  fault::FaultSimOptions opt;
  opt.num_threads = threads();
  opt.progress = [label](std::size_t done, std::size_t total) {
    progress(label.c_str(), done, total);
  };
  return kit.evaluate(gen, vectors, opt);
}

} // namespace fdbist::bench
