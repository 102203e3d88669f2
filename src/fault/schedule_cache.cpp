#include "fault/schedule_cache.hpp"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include <sys/stat.h>

#include "common/atomic_file.hpp"
#include "common/check.hpp"
#include "common/failpoint.hpp"
#include "common/fingerprint.hpp"
#include "fault/checkpoint.hpp"
#include "gate/sim.hpp"

namespace fdbist::fault {

namespace {

std::uint64_t now_ns() {
  return std::uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                           std::chrono::steady_clock::now().time_since_epoch())
                           .count());
}

Error corrupt(const std::string& what) {
  return Error{ErrorCode::CorruptArtifact, what};
}

/// Whole-file read; Io on anything the filesystem refuses.
Expected<std::vector<std::uint8_t>> read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr)
    return Error{ErrorCode::Io, "cannot open " + path + " for reading"};
  std::vector<std::uint8_t> bytes;
  std::uint8_t chunk[1 << 16];
  for (;;) {
    const std::size_t n = std::fread(chunk, 1, sizeof chunk, f);
    bytes.insert(bytes.end(), chunk, chunk + n);
    if (n < sizeof chunk) {
      const bool bad = std::ferror(f) != 0;
      std::fclose(f);
      if (bad) return Error{ErrorCode::Io, "read error on " + path};
      return bytes;
    }
  }
}

/// Same cap the simulator's Auto engine applies to the good trace: an
/// artifact whose trace cannot fit the compiled engine's budget would
/// never be used, so don't build (or retain) one.
constexpr std::size_t kArtifactTraceCap = std::size_t{512} << 20;

template <typename T>
std::size_t vector_bytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

} // namespace

std::uint64_t ArtifactKey::hash() const {
  std::uint64_t h = common::kFnvSeed;
  h = common::fnv1a_value(h, netlist_fp);
  h = common::fnv1a_value(h, stimulus_fp);
  h = common::fnv1a_value(h, faults_fp);
  h = common::fnv1a_value(h, schedule_format);
  return h;
}

ArtifactKey make_artifact_key(const gate::Netlist& nl,
                              std::span<const std::int64_t> stimulus,
                              std::span<const Fault> faults) {
  ArtifactKey k;
  k.netlist_fp = fingerprint_netlist(nl);
  k.stimulus_fp = fingerprint_stimulus(stimulus);
  k.faults_fp = fingerprint_faults(faults);
  k.schedule_format = gate::kScheduleFormatVersion;
  return k;
}

std::size_t CompiledArtifact::memory_bytes() const {
  std::size_t b = sizeof(CompiledArtifact);
  b += netlist.size() * (sizeof(gate::Gate) + sizeof(gate::GateOrigin));
  b += netlist.registers().size() * sizeof(gate::RegBit);
  b += vector_bytes(trace.bits);
  if (schedule) {
    // SoA arrays + CSR, all sized by the netlist.
    const std::size_t n = schedule->size();
    b += n * (sizeof(gate::GateOp) + 2 * sizeof(gate::NetId) +
              sizeof(std::int32_t) + 1) +
         (n + 1) * sizeof(std::int32_t);
    std::size_t edges = 0;
    for (const gate::Gate& g : netlist.gates()) {
      if (g.a != gate::kNoNet) ++edges;
      if (g.b != gate::kNoNet) ++edges;
    }
    edges += netlist.registers().size();
    b += edges * sizeof(gate::NetId);
  }
  return b;
}

void fold_cache_stats(const ArtifactCacheStats& s, FaultSimStats& into) {
  into.artifact_mem_hits += s.mem_hits;
  into.artifact_disk_hits += s.disk_hits;
  into.artifact_misses += s.misses;
  into.artifact_evictions += s.evictions;
  into.artifact_load_failures += s.load_failures;
  into.prep_artifact_load_ns += s.load_ns;
  into.prep_artifact_build_ns += s.build_ns;
  into.prep_artifact_save_ns += s.save_ns;
  // A cache miss built the artifact, which compiled the schedule once —
  // the one compilation a sliced campaign pays per design.
  into.schedule_compilations += s.misses;
}

std::shared_ptr<const CompiledArtifact> build_artifact(
    const gate::Netlist& nl, std::span<const std::int64_t> stimulus,
    std::span<const Fault> faults) {
  FDBIST_REQUIRE(!stimulus.empty() && !faults.empty(),
                 "artifact build needs a stimulus and a fault universe");
  auto art = std::make_shared<CompiledArtifact>();
  art->key = make_artifact_key(nl, stimulus, faults);
  art->fault_count = faults.size();
  art->stimulus_len = stimulus.size();

  // A structural copy through add_gate keeps the artifact
  // self-contained (it must not reference the caller's netlist).
  for (const gate::Gate& g : nl.gates())
    art->netlist.add_gate(g.op, g.a, g.b);
  art->netlist.registers() = nl.registers();
  art->netlist.inputs() = nl.inputs();
  art->netlist.outputs() = nl.outputs();

  art->schedule.emplace(art->netlist);
  art->trace =
      gate::record_good_trace(*art->schedule, stimulus, stimulus.size());
  return art;
}

std::vector<std::uint8_t> serialize_artifact(const CompiledArtifact& art) {
  FDBIST_REQUIRE(art.schedule.has_value(),
                 "serializing an artifact without a schedule");
  gate::ByteWriter w;
  gate::ArtifactHeader h;
  h.schedule_format = art.key.schedule_format;
  h.netlist_fp = art.key.netlist_fp;
  h.stimulus_fp = art.key.stimulus_fp;
  h.faults_fp = art.key.faults_fp;
  h.fault_count = art.fault_count;
  h.stimulus_len = art.stimulus_len;
  gate::write_artifact_header(w, h);

  gate::write_netlist(w, art.netlist);
  gate::write_schedule(w, *art.schedule);
  gate::write_trace(w, art.trace);
  gate::write_artifact_checksum(w);
  return w.take();
}

Expected<std::shared_ptr<const CompiledArtifact>> deserialize_artifact(
    std::span<const std::uint8_t> bytes, const ArtifactKey& expect) {
  auto payload = gate::verify_artifact_checksum(bytes);
  if (!payload) return payload.error();
  gate::ByteReader r(*payload);

  auto header = gate::read_artifact_header(r);
  if (!header) return header.error();
  ArtifactKey got;
  got.netlist_fp = header->netlist_fp;
  got.stimulus_fp = header->stimulus_fp;
  got.faults_fp = header->faults_fp;
  got.schedule_format = header->schedule_format;
  if (!(got == expect))
    return Error{ErrorCode::FingerprintMismatch,
                 "artifact was written for a different "
                 "design/stimulus/universe/configuration"};

  auto art = std::make_shared<CompiledArtifact>();
  art->key = got;
  art->fault_count = header->fault_count;
  art->stimulus_len = header->stimulus_len;

  auto nl = gate::read_netlist(r);
  if (!nl) return nl.error();
  art->netlist = std::move(*nl);

  auto parts = gate::read_schedule(r, art->netlist);
  if (!parts) return parts.error();
  art->schedule.emplace(art->netlist, std::move(*parts));

  auto trace = gate::read_trace(r, art->netlist.size(),
                                std::size_t(art->stimulus_len));
  if (!trace) return trace.error();
  art->trace = std::move(*trace);

  if (r.failed()) return corrupt("artifact ends prematurely");
  if (r.remaining() != 0)
    return corrupt(std::to_string(r.remaining()) +
                   " trailing bytes after the trace");
  return std::shared_ptr<const CompiledArtifact>(std::move(art));
}

Expected<void> save_artifact(const std::string& path,
                             const CompiledArtifact& art) {
  if (common::failpoint_eval("artifact-save-error"))
    return Error{ErrorCode::Io, "injected artifact save failure (failpoint)"};
  const std::vector<std::uint8_t> bytes = serialize_artifact(art);
  return common::atomic_write_file(path, bytes, "artifact");
}

Expected<std::shared_ptr<const CompiledArtifact>> load_artifact(
    const std::string& path, const ArtifactKey& expect) {
  auto bytes = read_file(path);
  if (!bytes) return bytes.error();
  // Chaos seam: simulate a disk that returned garbage. The flipped byte
  // must be caught by the checksum like any real corruption.
  if (common::failpoint_eval("artifact-load-corrupt") && !bytes->empty())
    (*bytes)[bytes->size() / 2] ^= 0x5A;
  return deserialize_artifact(*bytes, expect);
}

ScheduleCache::ScheduleCache(Config cfg) : cfg_(std::move(cfg)) {
  if (!cfg_.dir.empty()) {
    // Best-effort: a directory that cannot be created degrades to
    // per-save Io errors, which acquire() already absorbs.
    ::mkdir(cfg_.dir.c_str(), 0777);
  }
}

std::string ScheduleCache::entry_path(const ArtifactKey& key) const {
  char name[32];
  std::snprintf(name, sizeof name, "fdba-%016llx.fdba",
                static_cast<unsigned long long>(key.hash()));
  return cfg_.dir + "/" + name;
}

std::string ScheduleCache::env_dir() {
  const char* dir = std::getenv("FDBIST_SCHEDULE_CACHE");
  return dir == nullptr ? std::string() : std::string(dir);
}

std::size_t ScheduleCache::resident_bytes() const {
  const std::scoped_lock lock(mu_);
  return bytes_;
}

std::size_t ScheduleCache::resident_entries() const {
  const std::scoped_lock lock(mu_);
  return map_.size();
}

std::shared_ptr<const CompiledArtifact> ScheduleCache::lookup_locked(
    const ArtifactKey& key) {
  const auto it = map_.find(key);
  if (it == map_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second.lru_it); // touch
  return it->second.art;
}

void ScheduleCache::insert(const std::shared_ptr<const CompiledArtifact>& art,
                           ArtifactCacheStats& stats) {
  const std::size_t bytes = art->memory_bytes();
  if (bytes > cfg_.mem_budget_bytes) return; // handed out, never retained
  const std::scoped_lock lock(mu_);
  if (map_.find(art->key) != map_.end()) return; // racing build: keep first
  lru_.push_front(art->key);
  map_.emplace(art->key, Entry{art, bytes, lru_.begin()});
  bytes_ += bytes;
  while (bytes_ > cfg_.mem_budget_bytes && lru_.size() > 1) {
    const ArtifactKey victim = lru_.back();
    const auto vit = map_.find(victim);
    bytes_ -= vit->second.bytes;
    map_.erase(vit);
    lru_.pop_back();
    ++stats.evictions;
  }
}

std::shared_ptr<const CompiledArtifact> ScheduleCache::acquire(
    const gate::Netlist& nl, std::span<const std::int64_t> stimulus,
    std::span<const Fault> faults, ArtifactCacheStats& stats) {
  if (faults.empty() || stimulus.empty()) return nullptr;
  if (gate::GoodTrace::bytes_needed(nl.size(), stimulus.size()) >
      kArtifactTraceCap)
    return nullptr; // the compiled engine would refuse this trace anyway

  const ArtifactKey key = make_artifact_key(nl, stimulus, faults);
  {
    const std::scoped_lock lock(mu_);
    if (auto hit = lookup_locked(key)) {
      ++stats.mem_hits;
      return hit;
    }
  }

  if (!cfg_.dir.empty()) {
    const std::string path = entry_path(key);
    const std::uint64_t t0 = now_ns();
    auto loaded = load_artifact(path, key);
    if (loaded) {
      stats.load_ns += now_ns() - t0;
      ++stats.disk_hits;
      insert(*loaded, stats);
      return *loaded;
    }
    stats.load_ns += now_ns() - t0;
    if (loaded.error().code != ErrorCode::Io) {
      // Torn, corrupt, foreign or stale-format file: refuse, drop it,
      // rebuild. Io usually just means "not cached yet".
      ++stats.load_failures;
      std::remove(path.c_str());
    }
  }

  const std::uint64_t b0 = now_ns();
  std::shared_ptr<const CompiledArtifact> art =
      build_artifact(nl, stimulus, faults);
  stats.build_ns += now_ns() - b0;
  ++stats.misses;
  insert(art, stats);

  if (!cfg_.dir.empty()) {
    const std::uint64_t s0 = now_ns();
    // Save failures (full disk, injected faults) are absorbed: the
    // cache is an accelerator, never a correctness dependency.
    (void)save_artifact(entry_path(key), *art);
    stats.save_ns += now_ns() - s0;
  }
  return art;
}

} // namespace fdbist::fault
