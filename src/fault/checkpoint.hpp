// Versioned binary checkpoints for fault-simulation campaigns.
//
// A campaign (fault/campaign.hpp) partitions its fault universe into
// fixed-size slices and records a slice once all its faults carry a
// verdict; the checkpoint captures exactly that state — the per-fault
// detect_cycle array plus a bitmap of finalized slices — together with
// fingerprints of everything
// the verdicts depend on (netlist structure, stimulus words, fault
// list), so a resumed run either continues bit-identically or is
// refused with FingerprintMismatch.
//
// File layout, version 2, in the common frame of common/binfile.hpp
// (all integers little-endian). Version 2 extends the header with the
// design family and the signature-compaction configuration — signature
// verdicts depend on both, so a resume under a different family or
// MISR polynomial must be refused — and appends the per-fault
// signature verdicts when compaction was on. Version-1 files predate
// the family tag and are refused (CorruptCheckpoint): without the tag
// there is no way to audit what family wrote them.
//
//   offset size  field
//   0      4     magic "FDBC"
//   4      4     u32  format version (= 2)
//   8      8     u64  netlist fingerprint   (FNV-1a over gates/regs/io)
//   16     8     u64  stimulus fingerprint  (FNV-1a over input words)
//   24     8     u64  fault-list fingerprint (FNV-1a over fault triples)
//   32     8     u64  fault count
//   40     8     u64  stimulus length (vectors)
//   48     8     u64  slice size (faults per checkpoint slice)
//   56     8     u64  slice count (= ceil(fault count / slice size))
//   64     4     u32  design family (rtl::DesignFamily)
//   68     4     u32  signature MISR width (0 = no compaction)
//   72     4     u32  signature feedback taps
//   76     4     u32  reserved (0)
//   80     B     finalized-slice bitmap, B = (slice count + 7) / 8
//   80+B   4*F   i32  detect_cycle[fault count]
//   ...    F     u8   signature_detect[fault count]  (width > 0 only)
//   end-8  8     u64  FNV-1a checksum of every preceding byte
//
// Saves are atomic and durable (write to "<path>.tmp", fsync, rename,
// fsync the parent directory — common/atomic_file.hpp), so a process
// killed mid-save never corrupts the previous good checkpoint and a
// completed save survives power loss. The crash seams of
// common/atomic_file.hpp (torn write, before rename, after rename) let
// the death tests kill a save at exactly those points. Loads
// validate the frame, then every count against the file's size, and
// return typed errors: Io for filesystem failures, CorruptCheckpoint
// for anything malformed.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "fault/fault.hpp"

namespace fdbist::fault {

inline constexpr std::uint32_t kCheckpointVersion = 2;

struct Checkpoint {
  std::uint64_t netlist_fp = 0;
  std::uint64_t stimulus_fp = 0;
  std::uint64_t faults_fp = 0;
  std::uint64_t stimulus_len = 0;
  std::uint64_t slice_size = 0;
  /// Design family the universe was built from (rtl::DesignFamily as
  /// u32); audited on resume like the fingerprints.
  std::uint32_t family = 0;
  /// Signature-compaction configuration (0/0 = word compare only).
  /// Signature verdicts depend on the polynomial, so these are part of
  /// the resume audit too.
  std::uint32_t sig_width = 0;
  std::uint32_t sig_taps = 0;
  /// One flag per slice (0/1), stored as a bitmap on disk.
  std::vector<std::uint8_t> slice_finalized;
  /// Per-fault first-detection cycle; only entries inside finalized
  /// slices are meaningful.
  std::vector<std::int32_t> detect_cycle;
  /// Per-fault signature verdicts; sized fault_count() iff sig_width>0.
  std::vector<std::uint8_t> signature_detect;

  std::size_t fault_count() const { return detect_cycle.size(); }
  std::size_t slice_count() const { return slice_finalized.size(); }
};

/// FNV-1a over the netlist's simulation-relevant structure: gate
/// (op, a, b) triples, register (d, q) pairs, and input/output bit
/// groups. Names and origins are excluded — they cannot change verdicts.
std::uint64_t fingerprint_netlist(const gate::Netlist& nl);

/// FNV-1a over the raw stimulus words.
std::uint64_t fingerprint_stimulus(std::span<const std::int64_t> stimulus);

/// FNV-1a over the (gate, site, stuck) fault triples, order-sensitive —
/// slice boundaries are positional, so a reordered universe must refuse
/// to resume.
std::uint64_t fingerprint_faults(std::span<const Fault> faults);

/// Atomically persist `ck` to `path` (tmp + fsync + rename).
Expected<void> save_checkpoint(const std::string& path, const Checkpoint& ck);

/// Load and validate a checkpoint. Io if the file cannot be read;
/// CorruptCheckpoint on bad magic, unsupported version, checksum
/// mismatch, inconsistent slice geometry, or a count the file cannot
/// hold. Fingerprints are returned
/// as-is — matching them against the live campaign is the caller's job
/// (fault/campaign.cpp reports FingerprintMismatch).
Expected<Checkpoint> load_checkpoint(const std::string& path);

} // namespace fdbist::fault
