#include "fault/checkpoint.hpp"

#include "common/atomic_file.hpp"
#include "common/binfile.hpp"
#include "common/fingerprint.hpp"

namespace fdbist::fault {

namespace {

using common::fnv1a;
using common::fnv1a_value;
using common::kFnvSeed;

constexpr char kMagic[4] = {'F', 'D', 'B', 'C'};

/// ceil(a / b) without the overflow of (a + b - 1) / b.
std::uint64_t ceil_div(std::uint64_t a, std::uint64_t b) {
  return a / b + (a % b != 0 ? 1 : 0);
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

  std::vector<std::uint8_t> bitmap((ck.slice_count() + 7) / 8, 0);
  for (std::size_t s = 0; s < ck.slice_count(); ++s)
    if (ck.slice_finalized[s]) bitmap[s / 8] |= std::uint8_t(1u << (s % 8));

  common::ByteWriter w = common::start_file(kMagic, kCheckpointVersion);
  w.put_u64(ck.netlist_fp);
  w.put_u64(ck.stimulus_fp);
  w.put_u64(ck.faults_fp);
  w.put_u64(ck.fault_count());
  w.put_u64(ck.stimulus_len);
  w.put_u64(ck.slice_size);
  w.put_u64(ck.slice_count());
  w.put_u32(ck.family);
  w.put_u32(ck.sig_width);
  w.put_u32(ck.sig_taps);
  w.put_u32(0); // reserved
  w.put_array(bitmap);
  w.put_array(ck.detect_cycle);
  w.put_array(ck.signature_detect);
  common::seal_file(w);

  // tmp + fsync + rename + parent-dir fsync (common/atomic_file.hpp): a
  // SIGKILL at any point leaves either the old checkpoint or the new
  // one, never a torn file at `path`, and a completed save survives a
  // power cut. Its crash seams let the death tests stand exactly on the
  // write/rename points.
  return common::atomic_write_file(path, w.bytes());
}

Expected<Checkpoint> load_checkpoint(const std::string& path) {
  const auto bytes = common::read_file(path);
  if (!bytes) return bytes.error();
  auto opened = common::open_file(*bytes, kMagic, kCheckpointVersion,
                                  ErrorCode::CorruptCheckpoint);
  if (!opened) return opened.error();
  common::ByteReader& r = *opened;

  Checkpoint ck;
  ck.netlist_fp = r.take_u64();
  ck.stimulus_fp = r.take_u64();
  ck.faults_fp = r.take_u64();
  const std::uint64_t fault_count = r.take_u64();
  ck.stimulus_len = r.take_u64();
  ck.slice_size = r.take_u64();
  const std::uint64_t slice_count = r.take_u64();
  ck.family = r.take_u32();
  ck.sig_width = r.take_u32();
  ck.sig_taps = r.take_u32();
  (void)r.take_u32(); // reserved
  if (r.failed()) return corrupt("truncated header");
  if (ck.slice_size == 0 || slice_count != ceil_div(fault_count, ck.slice_size))
    return corrupt("inconsistent slice geometry");

  std::vector<std::uint8_t> bitmap;
  if (!r.take_array(ceil_div(slice_count, 8), bitmap) ||
      !r.take_array(fault_count, ck.detect_cycle) ||
      (ck.sig_width != 0 && !r.take_array(fault_count, ck.signature_detect)))
    return corrupt("truncated file (the header counts " +
                   std::to_string(fault_count) + " faults in " +
                   std::to_string(slice_count) + " slices)");
  if (r.remaining() != 0)
    return corrupt("oversized file (" + std::to_string(r.remaining()) +
                   " trailing bytes)");

  ck.slice_finalized.resize(std::size_t(slice_count));
  for (std::size_t s = 0; s < ck.slice_finalized.size(); ++s)
    ck.slice_finalized[s] = (bitmap[s / 8] >> (s % 8)) & 1u;
  return ck;
}

} // namespace fdbist::fault
