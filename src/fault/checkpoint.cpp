#include "fault/checkpoint.hpp"

#include <cstdio>
#include <cstring>

#include "common/atomic_file.hpp"
#include "common/fingerprint.hpp"

namespace fdbist::fault {

namespace {

using common::fnv1a;
using common::fnv1a_value;
using common::kFnvSeed;
using common::put_bytes;
using common::take_bytes;

constexpr char kMagic[4] = {'F', 'D', 'B', 'C'};
constexpr std::size_t kHeaderBytes = 80;
constexpr std::size_t kChecksumBytes = 8;

Error io_error(const std::string& what, const std::string& path) {
  return Error{ErrorCode::Io, what + " " + path};
}

Error corrupt(const std::string& why) {
  return Error{ErrorCode::CorruptCheckpoint, why};
}

} // namespace

std::uint64_t fingerprint_netlist(const gate::Netlist& nl) {
  std::uint64_t h = kFnvSeed;
  h = fnv1a_value(h, std::uint64_t{nl.size()});
  for (const gate::Gate& g : nl.gates()) {
    h = fnv1a_value(h, static_cast<std::uint8_t>(g.op));
    h = fnv1a_value(h, g.a);
    h = fnv1a_value(h, g.b);
  }
  for (const gate::RegBit& r : nl.registers()) {
    h = fnv1a_value(h, r.d);
    h = fnv1a_value(h, r.q);
  }
  for (const auto& group : nl.inputs()) {
    h = fnv1a_value(h, std::uint64_t{group.size()});
    h = fnv1a(h, group.data(), group.size() * sizeof(gate::NetId));
  }
  for (const auto& group : nl.outputs()) {
    h = fnv1a_value(h, std::uint64_t{group.size()});
    h = fnv1a(h, group.data(), group.size() * sizeof(gate::NetId));
  }
  return h;
}

std::uint64_t fingerprint_stimulus(std::span<const std::int64_t> stimulus) {
  std::uint64_t h = kFnvSeed;
  h = fnv1a_value(h, std::uint64_t{stimulus.size()});
  h = fnv1a(h, stimulus.data(), stimulus.size_bytes());
  return h;
}

std::uint64_t fingerprint_faults(std::span<const Fault> faults) {
  std::uint64_t h = kFnvSeed;
  h = fnv1a_value(h, std::uint64_t{faults.size()});
  for (const Fault& f : faults) {
    h = fnv1a_value(h, f.gate);
    h = fnv1a_value(h, static_cast<std::uint8_t>(f.site));
    h = fnv1a_value(h, f.stuck);
  }
  return h;
}

Expected<void> save_checkpoint(const std::string& path, const Checkpoint& ck) {
  FDBIST_REQUIRE(ck.slice_size > 0, "checkpoint slice size must be positive");
  FDBIST_REQUIRE(ck.slice_count() ==
                     (ck.fault_count() + ck.slice_size - 1) / ck.slice_size,
                 "slice bitmap does not cover the fault universe");
  FDBIST_REQUIRE(ck.signature_detect.size() ==
                     (ck.sig_width == 0 ? 0 : ck.fault_count()),
                 "signature array must be empty or cover every fault");

  std::vector<std::uint8_t> buf;
  const std::size_t bitmap_bytes = (ck.slice_count() + 7) / 8;
  buf.reserve(kHeaderBytes + bitmap_bytes +
              ck.fault_count() * sizeof(std::int32_t) +
              ck.signature_detect.size() + kChecksumBytes);

  for (const char c : kMagic) buf.push_back(std::uint8_t(c));
  put_bytes(buf, kCheckpointVersion);
  put_bytes(buf, ck.netlist_fp);
  put_bytes(buf, ck.stimulus_fp);
  put_bytes(buf, ck.faults_fp);
  put_bytes(buf, std::uint64_t{ck.fault_count()});
  put_bytes(buf, ck.stimulus_len);
  put_bytes(buf, ck.slice_size);
  put_bytes(buf, std::uint64_t{ck.slice_count()});
  put_bytes(buf, ck.family);
  put_bytes(buf, ck.sig_width);
  put_bytes(buf, ck.sig_taps);
  put_bytes(buf, std::uint32_t{0}); // reserved

  std::vector<std::uint8_t> bitmap(bitmap_bytes, 0);
  for (std::size_t s = 0; s < ck.slice_count(); ++s)
    if (ck.slice_finalized[s]) bitmap[s / 8] |= std::uint8_t(1u << (s % 8));
  buf.insert(buf.end(), bitmap.begin(), bitmap.end());

  const auto* cycles =
      reinterpret_cast<const std::uint8_t*>(ck.detect_cycle.data());
  buf.insert(buf.end(), cycles,
             cycles + ck.fault_count() * sizeof(std::int32_t));
  buf.insert(buf.end(), ck.signature_detect.begin(),
             ck.signature_detect.end());

  put_bytes(buf, fnv1a(kFnvSeed, buf.data(), buf.size()));

  // tmp + fsync + rename + parent-dir fsync (common/atomic_file.hpp): a
  // SIGKILL at any point leaves either the old checkpoint or the new
  // one, never a torn file at `path`, and a completed save survives a
  // power cut. The "checkpoint-*" failpoints let the crash tests stand
  // exactly on the write/rename seams.
  return common::atomic_write_file(path, buf, "checkpoint");
}

Expected<Checkpoint> load_checkpoint(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return io_error("cannot open:", path);
  std::vector<std::uint8_t> buf;
  std::uint8_t chunk[1 << 16];
  for (;;) {
    const std::size_t n = std::fread(chunk, 1, sizeof chunk, f);
    buf.insert(buf.end(), chunk, chunk + n);
    if (n < sizeof chunk) break;
  }
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) return io_error("read failed:", path);

  if (buf.size() < kHeaderBytes + kChecksumBytes)
    return corrupt("truncated file (" + std::to_string(buf.size()) +
                   " bytes, header needs " +
                   std::to_string(kHeaderBytes + kChecksumBytes) + ")");
  if (std::memcmp(buf.data(), kMagic, 4) != 0)
    return corrupt("bad magic (not a fdbist checkpoint)");

  std::size_t off = 4;
  const auto version = take_bytes<std::uint32_t>(buf, off);
  if (version != kCheckpointVersion)
    return corrupt("unsupported format version " + std::to_string(version) +
                   " (this build reads version " +
                   std::to_string(kCheckpointVersion) +
                   "; delete the file to restart the campaign)");

  Checkpoint ck;
  ck.netlist_fp = take_bytes<std::uint64_t>(buf, off);
  ck.stimulus_fp = take_bytes<std::uint64_t>(buf, off);
  ck.faults_fp = take_bytes<std::uint64_t>(buf, off);
  const auto fault_count = take_bytes<std::uint64_t>(buf, off);
  ck.stimulus_len = take_bytes<std::uint64_t>(buf, off);
  ck.slice_size = take_bytes<std::uint64_t>(buf, off);
  const auto slice_count = take_bytes<std::uint64_t>(buf, off);
  ck.family = take_bytes<std::uint32_t>(buf, off);
  ck.sig_width = take_bytes<std::uint32_t>(buf, off);
  ck.sig_taps = take_bytes<std::uint32_t>(buf, off);
  (void)take_bytes<std::uint32_t>(buf, off); // reserved

  if (ck.slice_size == 0 ||
      slice_count != (fault_count + ck.slice_size - 1) / ck.slice_size)
    return corrupt("inconsistent slice geometry");
  const std::size_t bitmap_bytes = (std::size_t(slice_count) + 7) / 8;
  const std::size_t sig_bytes =
      ck.sig_width == 0 ? 0 : std::size_t(fault_count);
  const std::size_t expected = kHeaderBytes + bitmap_bytes +
                               std::size_t(fault_count) * sizeof(std::int32_t) +
                               sig_bytes + kChecksumBytes;
  if (buf.size() != expected)
    return corrupt("truncated or oversized file (" +
                   std::to_string(buf.size()) + " bytes, expected " +
                   std::to_string(expected) + ")");

  std::size_t checksum_off = buf.size() - kChecksumBytes;
  const std::uint64_t stored = take_bytes<std::uint64_t>(buf, checksum_off);
  if (fnv1a(kFnvSeed, buf.data(), buf.size() - kChecksumBytes) != stored)
    return corrupt("checksum mismatch");

  ck.slice_finalized.resize(std::size_t(slice_count));
  for (std::size_t s = 0; s < ck.slice_finalized.size(); ++s)
    ck.slice_finalized[s] = (buf[off + s / 8] >> (s % 8)) & 1u;
  off += bitmap_bytes;

  ck.detect_cycle.resize(std::size_t(fault_count));
  std::memcpy(ck.detect_cycle.data(), buf.data() + off,
              ck.detect_cycle.size() * sizeof(std::int32_t));
  off += ck.detect_cycle.size() * sizeof(std::int32_t);
  if (sig_bytes != 0)
    ck.signature_detect.assign(buf.data() + off, buf.data() + off + sig_bytes);
  return ck;
}

} // namespace fdbist::fault
