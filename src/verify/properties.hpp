// Property checkers: mathematical invariants of the whole stack,
// checked on randomly generated filter cases.
//
// Unlike the oracle (verify/oracle.hpp), which diffs two redundant
// implementations of the same computation, these check *laws* a single
// implementation must obey:
//
//   superposition   y(x1 + x2) == y(x1) + y(x2) within truncation slack
//                   (the fault-free datapath is linear but for
//                   quantization — paper Section 7.1). Feedback
//                   families use the relaxed per-family budget that
//                   adds the analysis window's tail bound; decimators
//                   combine stimuli per packed lane.
//   prefix          verdicts under a stimulus prefix agree with the
//   dominance       full-run verdicts: detection at cycle t depends
//                   only on vectors [0, t], so a longer stimulus can
//                   only add detections, never move or remove one
//   mixed-engine    a campaign checkpointed under one FaultSimEngine
//   resume          and resumed under another merges to verdicts
//                   bit-identical to an uninterrupted run
//   signature       the kernel's difference-MISR verdicts leave the
//   compaction      word-compare cycles alone, agree across engines,
//                   imply word-compare detection, and alias within a
//                   generous multiple of the 2^-width expectation
//   slice verdicts  each third of the fault sample, simulated on its
//                   own, gives every fault in it its one-shot verdict
//                   (what a resume that runs only the unfinalized
//                   faults relies on)
//
// A campaign's one simulate_faults call needs no property of its own:
// the oracle's campaign row (verify/oracle.hpp) compares its verdicts
// and work with the one-shot reference on every filter case and
// asserts that it recorded one full-budget good trace.
//
// All return verify::Finding; property violations are fuzz findings
// exactly like oracle discrepancies and go through the same
// minimize-and-serialize path.
#pragma once

#include <string>

#include "verify/oracle.hpp"

namespace fdbist::verify {

/// Superposition of the fault-free filter: drive x1, x2, and x1+x2
/// (half-amplitude so the sum cannot overflow the input format) and
/// require |y12 - y1 - y2| within the accumulated truncation slack plus
/// the family's feedback tail bound. Decimator stimuli are halved and
/// summed per packed lane so the identity holds lane-exactly.
Finding check_superposition(const FilterCase& c);

/// Prefix dominance of fault verdicts: simulate the case's fault sample
/// under the full stimulus and under its first-half prefix; every
/// verdict must be prefix-consistent.
Finding check_prefix_dominance(const FilterCase& c);

/// Kill/resume equality under mixed engines: run a FullSweep campaign
/// checkpointing to `checkpoint_path`, cut the checkpoint back to the
/// first quarter of the faults (the file a call cut short after those
/// leaves), resume it on the Compiled engine, and require exactly that
/// many restored faults and verdicts bit-identical to a one-shot run.
/// The caller owns the path (a temp file); it is overwritten and left
/// behind on failure for post-mortem.
Finding check_mixed_engine_resume(const FilterCase& c,
                                  const std::string& checkpoint_path);

/// In-kernel signature compaction vs word-compare ground truth: run the
/// case's fault sample with FaultSimOptions::signature enabled on both
/// engines and require (a) word-compare detect cycles unchanged, (b)
/// engine-bit-identical signature verdicts, (c) signature detection
/// implies word-compare detection (the difference MISR of an identical
/// stream is provably zero), and (d) the measured aliased count within
/// the 2 + 64 * detected * 2^-width envelope.
Finding check_signature_compaction(const FilterCase& c, int sig_width = 16);

/// Slice-vs-one-shot equality: cut the case's fault sample into thirds
/// of 1 + n/3 faults, simulate each alone at one thread, and require
/// every fault in it finalized with the verdict of a one-shot
/// simulate_faults over the whole sample.
Finding check_slice_verdicts(const FilterCase& c);

} // namespace fdbist::verify
