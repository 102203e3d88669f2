#include "common/atomic_file.hpp"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

namespace fdbist::common {

namespace {

std::atomic<CrashSeam> g_armed{CrashSeam::None};

bool armed(CrashSeam seam) {
  return g_armed.load(std::memory_order_relaxed) == seam;
}

[[noreturn]] void crash(const char* seam) {
  std::fprintf(stderr, "fdbist: crash seam %s: SIGKILL\n", seam);
  std::fflush(stderr);
  ::kill(::getpid(), SIGKILL);
  for (;;) ::pause(); // unreachable: SIGKILL cannot be caught
}

Error io_error(const std::string& what, const std::string& path) {
  return Error{ErrorCode::Io,
               what + " " + path + " (" + std::strerror(errno) + ")"};
}

} // namespace

void arm_crash_seam(CrashSeam seam) {
  g_armed.store(seam, std::memory_order_relaxed);
}

Expected<void> fsync_parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return io_error("cannot open directory for fsync:", dir);
  // Some filesystems (and some container overlays) reject directory
  // fsync with EINVAL; that is a property of the mount, not a failed
  // write, so only real errors are fatal.
  const bool ok = ::fsync(fd) == 0 || errno == EINVAL;
  ::close(fd);
  if (!ok) return io_error("cannot fsync directory:", dir);
  return {};
}

Expected<void> atomic_write_file(const std::string& path,
                                 std::span<const std::uint8_t> bytes) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return io_error("cannot open for writing:", tmp);

  // Torn write: persist half the payload, make it durable, then die —
  // the tail checksum is what makes the torn tmp file detectable, and
  // the not-yet-renamed `path` is what keeps it harmless.
  if (armed(CrashSeam::TornWrite)) {
    std::fwrite(bytes.data(), 1, bytes.size() / 2, f);
    std::fflush(f);
    ::fsync(fileno(f));
    std::fclose(f);
    crash("torn-write");
  }

  const bool wrote =
      std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size() &&
      std::fflush(f) == 0 && ::fsync(fileno(f)) == 0;
  if (std::fclose(f) != 0 || !wrote) {
    std::remove(tmp.c_str());
    return io_error("short write to", tmp);
  }

  if (armed(CrashSeam::BeforeRename)) crash("before-rename");

  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return io_error("cannot rename into place:", path);
  }

  if (armed(CrashSeam::AfterRename)) crash("after-rename");

  return fsync_parent_dir(path);
}

} // namespace fdbist::common
