#include "common/binfile.hpp"

#include <cstdio>

#include "common/fingerprint.hpp"

namespace fdbist::common {

namespace {

/// Magic + version before the payload, the FNV-1a trailer after it.
constexpr std::size_t kFrameHead = 8;
constexpr std::size_t kFrameTail = 8;

} // namespace

ByteWriter start_file(const char (&magic)[4], std::uint32_t version) {
  ByteWriter w;
  for (const char c : magic) w.put_u8(std::uint8_t(c));
  w.put_u32(version);
  return w;
}

void seal_file(ByteWriter& w) {
  w.put_u64(fnv1a(kFnvSeed, w.bytes().data(), w.bytes().size()));
}

Expected<ByteReader> open_file(std::span<const std::uint8_t> bytes,
                               const char (&magic)[4], std::uint32_t version,
                               ErrorCode corrupt) {
  const std::string name(magic, 4);
  if (bytes.size() < kFrameHead + kFrameTail)
    return Error{corrupt, "truncated file (" + std::to_string(bytes.size()) +
                              " bytes, an " + name + " file has at least " +
                              std::to_string(kFrameHead + kFrameTail) + ")"};
  if (std::memcmp(bytes.data(), magic, 4) != 0)
    return Error{corrupt, "bad magic (not an " + name + " file)"};

  ByteReader head(bytes.subspan(4, 4));
  const std::uint32_t found = head.take_u32();
  if (found != version)
    return Error{corrupt, "unsupported " + name + " version " +
                              std::to_string(found) + " (expected " +
                              std::to_string(version) + ")"};

  const std::size_t body = bytes.size() - kFrameTail;
  ByteReader tail(bytes.subspan(body));
  if (fnv1a(kFnvSeed, bytes.data(), body) != tail.take_u64())
    return Error{corrupt, "checksum mismatch"};
  return ByteReader(bytes.subspan(kFrameHead, body - kFrameHead));
}

Expected<std::vector<std::uint8_t>> read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr)
    return Error{ErrorCode::Io, "cannot open " + path + " for reading"};
  constexpr std::size_t kChunk = std::size_t{1} << 16;
  std::vector<std::uint8_t> bytes;
  for (;;) {
    const std::size_t at = bytes.size();
    bytes.resize(at + kChunk);
    const std::size_t n = std::fread(bytes.data() + at, 1, kChunk, f);
    bytes.resize(at + n);
    if (n < kChunk) break;
  }
  const bool bad = std::ferror(f) != 0;
  std::fclose(f);
  if (bad) return Error{ErrorCode::Io, "read error on " + path};
  return bytes;
}

} // namespace fdbist::common
