// Replayable corpus of failing (or interesting) fuzz cases.
//
// Cases are stored as line-oriented text, one case per file, so a
// minimized reproducer can be read, diffed, and hand-edited. The format
// is versioned and self-describing (see DESIGN.md §10):
//
//   fdbist-corpus v2
//   kind rtl | filter
//   detail <oracle finding, one line>
//   ... kind-specific key/value lines ...
//   end
//
// Version 2 records a filter case's design family and decimation
// factor ("family <int>" / "factor <int>" after "mutate"). Version 1
// files — unlike v1 checkpoints, which are refused — still replay: a
// v1 corpus case predates the family dimension and can only describe a
// FIR, so loading defaults family 0 and factor 2 with no ambiguity.
// Writers always emit v2.
//
// Doubles (filter coefficients) are written as hexfloats so replay
// rebuilds bit-identical designs. Loading is strict: unknown keys, bad
// counts, or a missing trailer are corrupt-corpus errors, not silent
// defaults — a corpus file that no longer parses should fail loudly.
#pragma once

#include <string>
#include <vector>

#include "common/error.hpp"
#include "verify/rand.hpp"

namespace fdbist::verify {

enum class CaseKind : std::uint8_t { Rtl, Filter };

inline const char* case_kind_name(CaseKind k) {
  return k == CaseKind::Rtl ? "rtl" : "filter";
}

/// One deserialized corpus entry. `kind` selects which of the two case
/// payloads is meaningful; `detail` is the oracle finding that caused
/// the case to be saved (informational, not replayed).
struct CorpusCase {
  CaseKind kind = CaseKind::Rtl;
  std::string detail;
  RtlCase rtl;
  FilterCase filter;
};

/// Serialize a case to the v2 text format.
std::string format_case(const CorpusCase& c);

/// Parse the text format, accepting v2 and (FIR-defaulting) v1.
/// Returns CorruptCheckpoint on any structural problem (wrong magic,
/// unknown version, truncation, malformed numbers, an out-of-range
/// family).
Expected<CorpusCase> parse_case(const std::string& text);

/// File-level wrappers around format_case/parse_case.
Expected<void> save_case(const std::string& path, const CorpusCase& c);
Expected<CorpusCase> load_case(const std::string& path);

/// Deterministic file name for a failing case: "<kind>-<seed>.case".
std::string case_filename(CaseKind kind, std::uint64_t seed);

/// All "*.case" files directly inside `dir`, sorted by name (so replay
/// order is stable). A missing directory is an empty corpus, not an
/// error; an unreadable one is Io.
Expected<std::vector<std::string>> list_corpus(const std::string& dir);

} // namespace fdbist::verify
