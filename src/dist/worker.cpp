#include "dist/worker.hpp"

#include <cerrno>
#include <chrono>
#include <cstdio>

#include <unistd.h>

#include "common/failpoint.hpp"
#include "common/subprocess.hpp"
#include "dist/protocol.hpp"
#include "fault/schedule_cache.hpp"

namespace fdbist::dist {

namespace {

/// Blocking read of one '\n'-terminated line from fd 0. nullopt on EOF
/// (coordinator gone — the worker's cue to exit quietly).
std::optional<std::string> read_command(std::string& buf) {
  for (;;) {
    const std::size_t nl = buf.find('\n');
    if (nl != std::string::npos) {
      std::string line = buf.substr(0, nl);
      buf.erase(0, nl + 1);
      return line;
    }
    char chunk[4096];
    const ssize_t n = ::read(STDIN_FILENO, chunk, sizeof chunk);
    if (n > 0) {
      buf.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return std::nullopt;
  }
}

std::uint64_t now_ms() {
  return std::uint64_t(std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now().time_since_epoch())
                           .count());
}

std::string sanitize(std::string s) {
  for (char& c : s)
    if (c == '\n' || c == '\r') c = ' ';
  return s;
}

} // namespace

Expected<void> run_worker(const gate::Netlist& nl,
                          std::span<const std::int64_t> stimulus,
                          std::span<const fault::Fault> faults,
                          const WorkerOptions& opt) {
  const UniverseFp fp =
      fingerprint_universe(nl, stimulus, faults, opt.compute.family);

  // Acquire the campaign's compiled artifact ONCE per worker process —
  // memory cache, then the shared on-disk store (where a predecessor's
  // build is waiting after a respawn), then a single build. Every slice
  // this process computes shares the handle; the per-slice campaigns
  // then skip preparation entirely.
  SliceComputeOptions compute = opt.compute;
  if (compute.artifact == nullptr && opt.schedule_cache != nullptr &&
      compute.engine != fault::FaultSimEngine::FullSweep) {
    fault::ArtifactCacheStats cstats;
    compute.artifact =
        opt.schedule_cache->acquire(nl, stimulus, faults, cstats);
    if (compute.artifact != nullptr)
      std::fprintf(stderr,
                   "[worker %zu] artifact %s (mem %llu disk %llu built %llu)\n",
                   opt.worker_id,
                   cstats.mem_hits + cstats.disk_hits > 0 ? "reused" : "built",
                   static_cast<unsigned long long>(cstats.mem_hits),
                   static_cast<unsigned long long>(cstats.disk_hits),
                   static_cast<unsigned long long>(cstats.misses));
  }

  Message hello;
  hello.kind = MsgKind::Hello;
  hello.a = opt.worker_id;
  if (auto w = common::write_line(STDOUT_FILENO, format_message(hello)); !w)
    return w.error();

  std::string buf;
  for (;;) {
    const auto line = read_command(buf);
    if (!line) return {}; // coordinator closed stdin
    auto cmd = parse_message(*line);
    if (!cmd) return cmd.error();
    if (cmd->kind == MsgKind::Exit) return {};
    if (cmd->kind != MsgKind::Slice)
      return Error{ErrorCode::Protocol,
                   "worker received non-command \"" + *line + "\""};

    const std::size_t slice = cmd->a;
    const std::size_t lo = cmd->b;
    const std::size_t count = cmd->c;
    std::fprintf(stderr, "[worker %zu] slice %zu: faults [%zu, +%zu)\n",
                 opt.worker_id, slice, lo, count);
    FDBIST_FAILPOINT("slow-worker");

    SliceComputeOptions copt = compute;
    bool first_progress = true;
    std::uint64_t last_beat = 0;
    bool stdout_gone = false;
    copt.progress = [&](std::size_t done, std::size_t total) {
      if (first_progress) {
        first_progress = false;
        FDBIST_FAILPOINT("worker-crash-mid-slice");
      }
      const std::uint64_t now = now_ms();
      if (done != total && now - last_beat < opt.heartbeat_ms) return;
      last_beat = now;
      Message m;
      m.kind = MsgKind::Progress;
      m.a = slice;
      m.b = done;
      if (!common::write_line(STDOUT_FILENO, format_message(m)))
        stdout_gone = true;
      if (opt.compute.progress) opt.compute.progress(done, total);
    };

    auto r = compute_and_save_slice(nl, stimulus, faults, fp, opt.dir, slice,
                                    lo, count, copt);
    if (stdout_gone)
      return Error{ErrorCode::Io, "coordinator pipe closed mid-slice"};

    Message m;
    m.a = slice;
    if (r) {
      m.kind = MsgKind::Done;
    } else {
      std::fprintf(stderr, "[worker %zu] slice %zu failed: %s: %s\n",
                   opt.worker_id, slice, error_code_name(r.error().code),
                   r.error().message.c_str());
      m.kind = MsgKind::Fail;
      m.text = std::string(error_code_name(r.error().code)) + " " +
               sanitize(r.error().message);
    }
    if (auto w = common::write_line(STDOUT_FILENO, format_message(m)); !w)
      return w.error();
  }
}

} // namespace fdbist::dist
