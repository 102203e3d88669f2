// Crash-safe whole-file replacement.
//
// atomic_write_file() is the durability primitive the library's one
// on-disk file, the campaign checkpoint, goes through: write
// "<path>.tmp", flush and fsync the file, rename over `path`, then
// fsync the parent directory so the rename itself survives a power
// cut. A process killed at ANY point leaves either the previous content
// of `path` or the complete new content — never a torn file — and once
// the call returns, the new content is durable.
//
// Crash seams. The sequence has three places where a kill matters, and
// a death test can stand on each one by arming it with arm_crash_seam()
// in the child it is about to lose:
//   TornWrite     persist half the bytes of the tmp file, fsync them,
//                 then SIGKILL
//   BeforeRename  SIGKILL once the tmp file is durable, before it
//                 replaces `path`
//   AfterRename   SIGKILL after the rename, before the parent directory
//                 fsync
// The kill is a real SIGKILL, not exit(): no destructor runs and no
// buffer flushes, which is what a power cut or an OOM kill looks like.
// Nothing but those tests arms a seam, so a production write reaches
// none of them; a disarmed seam costs one relaxed atomic load.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "common/error.hpp"

namespace fdbist::common {

/// The crash seams of atomic_write_file, in write order.
enum class CrashSeam : std::uint8_t {
  None,
  TornWrite,
  BeforeRename,
  AfterRename,
};

/// Arm `seam` for every later atomic_write_file in this process;
/// CrashSeam::None disarms.
void arm_crash_seam(CrashSeam seam);

/// Atomically replace `path` with `bytes`. Returns Io on any filesystem
/// failure; the tmp file is removed on error paths the process
/// survives.
Expected<void> atomic_write_file(const std::string& path,
                                 std::span<const std::uint8_t> bytes);

/// fsync the directory containing `path` (durability of a rename or
/// unlink inside it). Best-effort on filesystems that refuse directory
/// fsync; a hard Io only for real failures.
Expected<void> fsync_parent_dir(const std::string& path);

} // namespace fdbist::common
