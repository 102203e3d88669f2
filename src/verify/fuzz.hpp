// The differential fuzz driver: corpus replay + randomized case loop.
//
// One run does, in order:
//   1. Regression pass: every "*.case" file in the corpus directory is
//      loaded, rebuilt, and re-checked. A corpus case that fails again
//      is reported immediately (already minimal — no re-minimization).
//   2. Random pass: `cases` fresh cases, alternating RTL-datapath and
//      filter cases, each derived deterministically from (seed, index).
//      Filter cases rotate through every design family (FIR, IIR
//      biquad, polyphase decimator) unless FuzzOptions::family pins
//      one, and also run the property checkers on a fixed schedule:
//      superposition and prefix dominance always, the optional
//      properties on rotating strides of the case index i, one bit
//      each in a property mask —
//        bit 1  mixed-engine resume         i % 32 == 3
//        bit 2  sliced-vs-one-shot merge    i % 16 == 7
//        bit 3  in-kernel signature vs
//               word-compare ground truth   i % 4 == 1
//      Bits 0 and 4 are retired. Corpus replays run every bit. The
//      mixed-engine resume property writes its checkpoint into the
//      corpus directory, or the system temp directory without one,
//      under a name unique to the process and the check, so
//      concurrent runs that share a directory stay independent.
//   3. On a failure: delta-debug the case down while the same category
//      of finding persists, then serialize the minimized reproducer to
//      the corpus directory.
//
// The whole run is a pure function of the options — same seed, same
// cases, same corpus in, same findings out — which is what lets CI pin
// a seed and treat any finding as a hard failure.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "verify/corpus.hpp"
#include "verify/minimize.hpp"
#include "verify/oracle.hpp"

namespace fdbist::verify {

struct FuzzOptions {
  std::uint64_t seed = 1;
  std::size_t cases = 100;
  /// Corpus directory: replayed before the random pass, and the home of
  /// newly minimized reproducers. Empty = no replay, no persistence.
  std::string corpus_dir;
  /// Shrink failing cases before reporting (ddmin; costs many oracle
  /// re-runs per finding).
  bool minimize = true;
  /// Deliberate kernel mutation injected into every generated case
  /// (self-test mode): the oracle must catch it. -1 = off.
  std::int32_t mutate = -1;
  /// Pin generated filter cases to one design family
  /// (rtl::DesignFamily as an integer). -1 = rotate through all.
  std::int32_t family = -1;
  /// Optional progress hook: (cases finished, cases total).
  std::function<void(std::size_t, std::size_t)> progress;
};

struct FuzzFinding {
  CaseKind kind = CaseKind::Rtl;
  std::uint64_t case_seed = 0; ///< 0 for corpus-replay findings
  std::string detail;          ///< the oracle/property Finding text
  std::string corpus_path;     ///< where the reproducer was written
  bool from_corpus = false;    ///< regression (replayed) vs fresh
  /// Logic-gate count of the minimized case's lowered netlist (RTL
  /// cases only; 0 otherwise). The mutation self-test asserts this
  /// lands at a handful of gates.
  std::size_t minimized_logic_gates = 0;
  MinimizeStats minimize_stats;
};

struct FuzzReport {
  std::size_t cases_run = 0;
  std::size_t corpus_replayed = 0;
  std::vector<FuzzFinding> findings;
  /// Environmental trouble (unreadable corpus dir/file); independent of
  /// findings — a fuzz run can be green yet report an io_error.
  std::vector<std::string> io_errors;

  bool clean() const { return findings.empty() && io_errors.empty(); }
};

/// The category prefix of a Finding detail (text before the first ':').
/// The minimizer only accepts shrinks that reproduce the same category,
/// so a case failing "rtl-vs-gate" cannot degenerate into one failing
/// "mutation escaped".
std::string finding_category(const std::string& detail);

FuzzReport run_fuzz(const FuzzOptions& opt);

} // namespace fdbist::verify
