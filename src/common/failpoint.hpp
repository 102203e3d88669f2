// Named failpoints: deliberate fault injection for crash-tolerance tests.
//
// A failpoint is a named site compiled into production code (the
// checkpoint writer's seams) that normally costs one relaxed atomic
// load and does nothing. Activated — via the FDBIST_FAILPOINTS
// environment variable or failpoint_configure() — it fires a
// configured action when execution reaches the site, letting the smoke
// scripts and death tests exercise exactly the schedules ("SIGKILL
// between checkpoint write and rename", "half the file written, then
// SIGKILL") that no amount of polite unit testing reaches.
//
// Spec grammar (strict; a malformed spec is a hard usage error, because
// silently ignoring it would un-inject the fault a test depends on):
//
//   spec     := entry (',' entry)*
//   entry    := name '=' action ('@' count)?
//   action   := 'crash' | 'corrupt' | 'error' | 'off'
//   count    := positive integer (fire on the count-th hit; default 1,
//               i.e. every hit from the first on)
//
//   FDBIST_FAILPOINTS=checkpoint-before-rename=crash
//   FDBIST_FAILPOINTS=checkpoint-torn-write=corrupt@2
//
// Actions:
//   crash    raise SIGKILL on the calling process (a real un-catchable
//            kill — exactly what a power cut or OOM kill looks like)
//   corrupt  failpoint_eval() returns true; the site applies its own
//            corruption (the torn-write seam writes half the file, then
//            SIGKILLs the process)
//   error    failpoint_eval() returns true, as for corrupt; the site
//            decides what a hit means
//   off      registered but inert (lets a harness list sites)
//
// '@count' arms the action from the count-th evaluation of that site
// on: '@2' skips the first hit and fires on every later one, which is
// how a campaign is made to write one checkpoint and die on the next.
//
// Sites are evaluated with FDBIST_FAILPOINT(name) for crash behavior or
// failpoint_eval(name) where the site must react itself. The registry
// is process-wide, parsed once from the environment on first use;
// failpoint_configure() replaces it (tests, death-test children). Hit
// counters are per-process and thread-safe.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace fdbist::common {

enum class FailAction : std::uint8_t { Off, Crash, Corrupt, Error };

struct FailpointSpec {
  std::string name;
  FailAction action = FailAction::Off;
  std::uint32_t from_hit = 1; ///< fire on this evaluation and later ones
};

/// Parse a spec string (see grammar above) without installing it.
/// Returns InvalidArgument naming the offending entry on any error.
Expected<std::vector<FailpointSpec>> parse_failpoints(const std::string& spec);

/// Replace the process-wide registry (and reset all hit counters).
/// An empty spec clears every failpoint. Malformed input returns
/// InvalidArgument and leaves the registry unchanged.
Expected<void> failpoint_configure(const std::string& spec);

/// Evaluate a site: counts the hit and performs a Crash action in-line.
/// Returns true when an armed Corrupt/Error action fired, so call sites
/// needing site-specific behavior can branch; plain crash sites use the
/// FDBIST_FAILPOINT macro and ignore the result. Never fires unless the
/// registry holds this name.
bool failpoint_eval(const char* name);

/// Sugar for sites that only host crash actions.
#define FDBIST_FAILPOINT(name) ::fdbist::common::failpoint_eval(name)

/// True when any failpoint is installed (cheap; lets hot paths skip
/// even the name lookup).
bool failpoints_active();

} // namespace fdbist::common
