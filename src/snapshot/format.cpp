#include "snapshot/format.h"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>

namespace asyncmac::snapshot {

namespace {

constexpr std::size_t kHeaderSize = 8 + 1 + 4 + 8 + 4;

std::string errno_message(const std::string& what, const std::string& path) {
  return what + " " + path + ": " + std::strerror(errno);
}

/// RAII FILE* so the early throws below cannot leak a handle.
struct File {
  std::FILE* f = nullptr;
  ~File() {
    if (f) std::fclose(f);
  }
};

}  // namespace

const char* to_string(FileKind k) noexcept {
  switch (k) {
    case FileKind::kEngineRun: return "engine-run checkpoint";
    case FileKind::kGridManifest: return "grid manifest";
    case FileKind::kCampaignCursor: return "campaign cursor";
  }
  return "unknown";
}

void write_file(const std::string& path, FileKind kind,
                const std::vector<std::uint8_t>& payload) {
  std::uint8_t header[kHeaderSize];
  std::memcpy(header, kMagic, sizeof(kMagic));
  header[8] = static_cast<std::uint8_t>(kind);
  store_le<std::uint32_t>(header + 9, kFormatVersion);
  store_le<std::uint64_t>(header + 13, payload.size());
  store_le<std::uint32_t>(header + 21, crc32(payload.data(), payload.size()));

  // Unique tmp name per call: re-truncating the same .tmp path on every
  // autosave makes ext4 wait on the previous write's dirty pages (~5x the
  // cost of a fresh file), and concurrent writers to sibling paths must
  // not clobber each other's staging file. The suffix only needs to be
  // process-unique — rename() then replaces the target atomically.
  static std::atomic<std::uint64_t> tmp_seq{0};
  const std::string tmp = path + "." +
                          std::to_string(tmp_seq.fetch_add(1)) + ".tmp";
  File out;
  out.f = std::fopen(tmp.c_str(), "wb");
  if (!out.f)
    throw SnapshotError(ErrorKind::kIo, errno_message("cannot open", tmp));
  // Every failure from here on owns a staging file: remove it, so failed
  // autosaves do not litter the checkpoint directory.
  const auto fail = [&](const std::string& what, const std::string& target) {
    const std::string message = errno_message(what, target);
    if (out.f) std::fclose(out.f);
    out.f = nullptr;
    std::remove(tmp.c_str());
    throw SnapshotError(ErrorKind::kIo, message);
  };
  if (std::fwrite(header, 1, kHeaderSize, out.f) != kHeaderSize ||
      (!payload.empty() && std::fwrite(payload.data(), 1, payload.size(),
                                       out.f) != payload.size()) ||
      std::fflush(out.f) != 0)
    fail("cannot write", tmp);
  const int closed = std::fclose(out.f);
  out.f = nullptr;
  if (closed != 0) fail("cannot write", tmp);
  if (std::rename(tmp.c_str(), path.c_str()) != 0)
    fail("cannot rename into", path);
}

std::vector<std::uint8_t> read_file(const std::string& path, FileKind kind) {
  File in;
  in.f = std::fopen(path.c_str(), "rb");
  if (!in.f)
    throw SnapshotError(ErrorKind::kIo, errno_message("cannot open", path));
  std::vector<std::uint8_t> raw;
  std::uint8_t chunk[1 << 16];
  for (;;) {
    const std::size_t got = std::fread(chunk, 1, sizeof(chunk), in.f);
    raw.insert(raw.end(), chunk, chunk + got);
    if (got < sizeof(chunk)) {
      if (std::ferror(in.f))
        throw SnapshotError(ErrorKind::kIo,
                            errno_message("cannot read", path));
      break;
    }
  }

  if (raw.size() < kHeaderSize)
    throw SnapshotError(ErrorKind::kTruncated,
                        path + " holds " + std::to_string(raw.size()) +
                            " bytes, header needs " +
                            std::to_string(kHeaderSize));
  Reader header(raw.data(), kHeaderSize);
  char magic[sizeof(kMagic)];
  header.bytes(magic, sizeof(magic));
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
    throw SnapshotError(ErrorKind::kBadMagic,
                        path + " is not an asyncmac snapshot");
  const std::uint8_t got_kind = header.u8();
  if (got_kind != static_cast<std::uint8_t>(kind))
    throw SnapshotError(
        ErrorKind::kMismatch,
        path + " is a kind-" + std::to_string(got_kind) + " snapshot, not a " +
            to_string(kind));
  const std::uint32_t version = header.u32();
  if (version != kFormatVersion)
    throw SnapshotError(ErrorKind::kBadVersion,
                        path + " uses format v" + std::to_string(version) +
                            ", this binary reads v" +
                            std::to_string(kFormatVersion));
  const std::uint64_t payload_len = header.u64();
  const std::uint32_t expected_crc = header.u32();
  if (raw.size() - kHeaderSize != payload_len)
    throw SnapshotError(ErrorKind::kTruncated,
                        path + " payload holds " +
                            std::to_string(raw.size() - kHeaderSize) +
                            " bytes, header declares " +
                            std::to_string(payload_len));
  const std::uint32_t actual_crc =
      crc32(raw.data() + kHeaderSize, static_cast<std::size_t>(payload_len));
  if (actual_crc != expected_crc)
    throw SnapshotError(ErrorKind::kBadCrc, path + " payload checksum " +
                                                std::to_string(actual_crc) +
                                                " != declared " +
                                                std::to_string(expected_crc));
  return {raw.begin() + static_cast<std::ptrdiff_t>(kHeaderSize), raw.end()};
}

}  // namespace asyncmac::snapshot
