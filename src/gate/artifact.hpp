// FDBA compiled-artifact container: the on-disk form of a schedule.
//
// Campaign slices, respawned workers and repeat submissions of the same
// design all pay the identical preparation bill — schedule
// compilation, good-trace recording — before the first fault batch
// runs. The FDBA format captures the result of that preparation so it
// is paid once: the netlist, the CompiledSchedule's SoA gate arrays and
// fan-out CSR, and the bit-packed good-machine trace. The fault layer
// (fault/schedule_cache.hpp) writes these sections behind a header
// keyed on its own fingerprints and owns the cache itself; this header
// owns only the gate-level container primitives, so the gate module
// never depends on fault types.
//
// Unlike the checkpoint ("FDBC") and partial-result ("FDBP") files,
// which are native-endian local resume artifacts, an FDBA file is an
// *interchange* format: a schedule compiled on one host feeds workers
// on another (ROADMAP item 4), so every integer is serialized
// little-endian explicitly and the layout is identical on every
// platform. The trailing checksum is FNV-1a over every preceding byte
// of the serialized stream — stable because the stream itself is.
//
// Layout, version 2 (all integers little-endian):
//
//   offset size  field
//   0      4     magic "FDBA"
//   4      4     u32  container version (= kArtifactVersion)
//   8      4     u32  schedule format version (compilation semantics)
//   12     8     u64  netlist fingerprint   } of the netlist, stimulus
//   20     8     u64  stimulus fingerprint  } and full fault universe
//   28     8     u64  fault-list fingerprint} (the cache key)
//   36     8     u64  fault count (full universe)
//   44     8     u64  stimulus length (vectors; trace covers all)
//   52     8     u64  reserved (0)
//   60     ...   sections written by the fault layer, each built on the
//                codecs below: netlist, schedule arrays, good trace
//   end-8  8     u64  FNV-1a checksum of every preceding byte
//
// A file of any other container version, v1 included, is refused as
// CorruptArtifact and the cache rebuilds it.
//
// Loads are paranoid by contract: every read is bounds-checked, every
// count is validated against the netlist before an array is trusted,
// and any violation surfaces as a typed CorruptArtifact (never an
// assertion, never UB) — the cache's response to a bad file is always
// "recompile from scratch", so a torn or corrupt artifact can cost
// time but never correctness.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "gate/netlist.hpp"
#include "gate/schedule.hpp"

namespace fdbist::gate {

inline constexpr char kArtifactMagic[4] = {'F', 'D', 'B', 'A'};
inline constexpr std::uint32_t kArtifactVersion = 2;

/// Version of the *compilation semantics* a serialized schedule
/// encodes. Bump whenever CompiledSchedule's arrays would come out
/// differently for the same netlist (new CSR ordering, new SoA field):
/// artifacts written under another schedule format are refused and
/// rebuilt, never reinterpreted.
inline constexpr std::uint32_t kScheduleFormatVersion = 1;

/// Identity and geometry of an artifact — everything the verdicts
/// depend on.
struct ArtifactHeader {
  std::uint32_t schedule_format = kScheduleFormatVersion;
  std::uint64_t netlist_fp = 0;
  std::uint64_t stimulus_fp = 0;
  std::uint64_t faults_fp = 0;
  std::uint64_t fault_count = 0;
  std::uint64_t stimulus_len = 0;

  bool operator==(const ArtifactHeader&) const = default;
};

/// Append-only little-endian serializer. Fixed-width puts only — the
/// format has no varints, so reader offsets are position-independent
/// of the values.
class ByteWriter {
public:
  void put_u8(std::uint8_t v) { bytes_.push_back(v); }
  void put_u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) bytes_.push_back(std::uint8_t(v >> (8 * i)));
  }
  void put_u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) bytes_.push_back(std::uint8_t(v >> (8 * i)));
  }
  void put_i32(std::int32_t v) { put_u32(std::uint32_t(v)); }

  const std::vector<std::uint8_t>& bytes() const { return bytes_; }
  std::vector<std::uint8_t> take() { return std::move(bytes_); }
  std::size_t size() const { return bytes_.size(); }

private:
  std::vector<std::uint8_t> bytes_;
};

/// Bounds-checked little-endian cursor. A read past the end sets the
/// sticky fail flag and returns zero; callers check failed() once per
/// section instead of wrapping every take in an Expected.
class ByteReader {
public:
  explicit ByteReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint8_t take_u8() { return take<1>(); }
  std::uint32_t take_u32() { return std::uint32_t(take<4>()); }
  std::uint64_t take_u64() { return take<8>(); }
  std::int32_t take_i32() { return std::int32_t(take_u32()); }

  bool failed() const { return failed_; }
  std::size_t pos() const { return pos_; }
  std::size_t remaining() const { return bytes_.size() - pos_; }

private:
  template <int N>
  std::uint64_t take() {
    if (bytes_.size() - pos_ < N) {
      failed_ = true;
      pos_ = bytes_.size();
      return 0;
    }
    std::uint64_t v = 0;
    for (int i = 0; i < N; ++i)
      v |= std::uint64_t(bytes_[pos_ + std::size_t(i)]) << (8 * i);
    pos_ += N;
    return v;
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

/// Header codec. read_artifact_header validates magic and container
/// version (CorruptArtifact on either); the identity fields are
/// returned as-is for the caller to match against its own key.
void write_artifact_header(ByteWriter& w, const ArtifactHeader& h);
Expected<ArtifactHeader> read_artifact_header(ByteReader& r);

/// Netlist codec: gates (op, a, b), registers (d, q), input and output
/// bit groups. Gate origins are deliberately dropped — the simulation
/// kernel never reads them, the netlist fingerprint excludes them, and
/// fault reporting happens against the caller's ORIGINAL netlist — so
/// the loaded netlist carries default origins. read_netlist validates
/// operand/topology structure via Netlist rules re-checked here
/// non-throwing (ids in range, counts sane) and returns CorruptArtifact
/// on any violation.
void write_netlist(ByteWriter& w, const Netlist& nl);
Expected<Netlist> read_netlist(ByteReader& r);

/// CompiledSchedule codec: the SoA op/a/b arrays, the fan-out CSR, the
/// register-of map and the output marks — lane-width-independent, so
/// one artifact serves the scalar, AVX2 and AVX-512 backends alike.
/// read_schedule fully cross-checks the arrays against `nl` (ops and
/// operands must equal the netlist's, CSR offsets must be monotone and
/// in range, register indices must exist) before returning parts fit
/// for CompiledSchedule's restore constructor.
void write_schedule(ByteWriter& w, const CompiledSchedule& s);
Expected<CompiledSchedule::RestoreParts> read_schedule(ByteReader& r,
                                                       const Netlist& nl);

/// Good-trace codec: bit-packed rows, one bit per net per cycle.
/// read_trace validates the geometry against `nets` and the expected
/// cycle count.
void write_trace(ByteWriter& w, const GoodTrace& t);
Expected<GoodTrace> read_trace(ByteReader& r, std::size_t nets,
                               std::size_t cycles);

/// Seal a serialized artifact: append the little-endian FNV-1a of every
/// byte written so far.
void write_artifact_checksum(ByteWriter& w);

/// Whole-file integrity check (size floor + trailing checksum); run
/// before any section parsing so a torn tail is caught up front.
/// Returns the payload span (checksum stripped) on success.
Expected<std::span<const std::uint8_t>> verify_artifact_checksum(
    std::span<const std::uint8_t> bytes);

} // namespace fdbist::gate
