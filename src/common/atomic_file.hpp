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
// Failpoint sites (common/failpoint.hpp), in write order:
//   <prefix>-torn-write      armed `corrupt`: write only half the bytes
//                            of the tmp file, then SIGKILL
//   <prefix>-before-rename   crash after the tmp file is durable but
//                            before it replaces `path`
//   <prefix>-after-rename    crash after the rename, before the parent
//                            directory fsync
// The call site supplies the prefix; the checkpoint writer passes
// "checkpoint".
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "common/error.hpp"

namespace fdbist::common {

/// Atomically replace `path` with `bytes`. `failpoint_prefix` names the
/// injection sites above; pass nullptr for none (hot paths with no
/// chaos story). Returns Io on any filesystem failure; the tmp file is
/// removed on error paths the process survives.
Expected<void> atomic_write_file(const std::string& path,
                                 std::span<const std::uint8_t> bytes,
                                 const char* failpoint_prefix = nullptr);

/// fsync the directory containing `path` (durability of a rename or
/// unlink inside it). Best-effort on filesystems that refuse directory
/// fsync; a hard Io only for real failures.
Expected<void> fsync_parent_dir(const std::string& path);

} // namespace fdbist::common
