// The differential oracle: run one case through every redundant
// evaluation path the repo has and diff the results.
//
// Oracle matrix (see DESIGN.md §10):
//
//   RtlCase     rtl::Simulator  vs  gate::WordSim        raw words/cycle
//               record_good_trace vs WordSim lane 0      every net/cycle
//   FilterCase  rtl::Simulator  vs  gate::WordSim        output words
//               record_good_trace vs WordSim lane 0      every net/cycle
//               linear model (rtl/linear_model.hpp)      |y| <= L1 bound
//               Compiled engine vs  FullSweep engine     detect cycles
//               one-shot engine vs  sliced campaign      detect cycles,
//                                                        work counters
//               FaultSimResult::stats                    self-consistency
//
// Every check is exact (bit-identity or a provable bound) — no
// tolerances that drift. A failed check produces a Finding with enough
// context to reproduce; the fuzz driver then minimizes the case and
// serializes it to the corpus.
#pragma once

#include <string>

#include "fault/simulator.hpp"
#include "verify/rand.hpp"

namespace fdbist::verify {

/// Outcome of one oracle run: ok(), or a description of the first
/// discrepancy found (engine pair, cycle/fault index, values).
struct Finding {
  bool failed = false;
  std::string detail;

  static Finding ok() { return {}; }
  static Finding fail(std::string d) { return {true, std::move(d)}; }
  explicit operator bool() const { return failed; }
};

/// Deliberate kernel mutation used by self-tests: flip the op of the
/// (index mod #two-input-gates)-th And/Or/Xor gate (And -> Or -> Xor ->
/// And). Returns false when the netlist has no two-input logic gate.
bool apply_gate_mutation(gate::Netlist& nl, std::int32_t index);

/// RTL-vs-gate differential on a random-datapath case.
Finding check_rtl_case(const RtlCase& c);

/// Full-stack differential on a filter case (all rows of the matrix).
Finding check_filter_case(const FilterCase& c);

/// Internal-consistency invariants every FaultSimResult must satisfy
/// (engine tag, verdict/count agreement, cycle ranges, work counters,
/// one full-budget good-trace recording per compiled call).
/// Exposed so property tests can apply it to results they produce.
Finding check_stats_invariants(const fault::FaultSimResult& r,
                               fault::FaultSimEngine requested,
                               std::size_t fault_count,
                               std::size_t vectors);

/// Resolve a FilterCase's fault-index sample against a concrete ordered
/// universe (modulo size, deduplicated, order-preserving).
std::vector<fault::Fault> select_faults(
    const std::vector<std::uint32_t>& indices,
    const std::vector<fault::Fault>& universe);

} // namespace fdbist::verify
