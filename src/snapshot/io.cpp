#include "snapshot/io.h"

#include <array>

namespace asyncmac::snapshot {

const char* to_string(ErrorKind k) noexcept {
  switch (k) {
    case ErrorKind::kIo: return "snapshot io error";
    case ErrorKind::kTruncated: return "snapshot truncated";
    case ErrorKind::kBadMagic: return "snapshot bad magic";
    case ErrorKind::kBadVersion: return "snapshot bad version";
    case ErrorKind::kBadCrc: return "snapshot bad crc";
    case ErrorKind::kCorrupt: return "snapshot corrupt";
    case ErrorKind::kMismatch: return "snapshot mismatch";
  }
  return "snapshot error";
}

namespace {

/// Slice-by-8 tables: kCrcTables[0] is the classic bytewise table, and
/// kCrcTables[k][b] is the CRC of byte b followed by k zero bytes, so
/// eight table lookups fold one 8-byte word into the running CRC.
constexpr std::array<std::array<std::uint32_t, 256>, 8> make_crc_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int b = 0; b < 8; ++b)
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k)
    for (std::size_t i = 0; i < 256; ++i)
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
  return t;
}

constexpr auto kCrcTables = make_crc_tables();

}  // namespace

std::uint32_t crc32(const std::uint8_t* data, std::size_t len,
                    std::uint32_t crc) noexcept {
  const auto& t = kCrcTables;
  crc = ~crc;
  for (; len >= 8; data += 8, len -= 8) {
    // load_le makes the word's low byte the first byte on any host, which
    // is the order the reflected CRC consumes them in.
    const std::uint32_t lo = load_le<std::uint32_t>(data) ^ crc;
    const std::uint32_t hi = load_le<std::uint32_t>(data + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; len > 0; ++data, --len) crc = t[0][(crc ^ *data) & 0xFFu] ^ (crc >> 8);
  return ~crc;
}

void Reader::throw_truncated(std::size_t n) const {
  throw SnapshotError(ErrorKind::kTruncated,
                      "need " + std::to_string(n) + " bytes, have " +
                          std::to_string(remaining()));
}

std::uint64_t Reader::count(std::size_t min_element_bytes) {
  const std::uint64_t n = u64();
  if (n > remaining() / min_element_bytes)
    throw SnapshotError(ErrorKind::kCorrupt,
                        "element count " + std::to_string(n) +
                            " cannot fit in " + std::to_string(remaining()) +
                            " remaining bytes");
  return n;
}

bool Reader::boolean() {
  const std::uint8_t v = u8();
  if (v > 1)
    throw SnapshotError(ErrorKind::kCorrupt,
                        "boolean byte " + std::to_string(v));
  return v != 0;
}

std::string Reader::str() {
  const std::uint64_t len = u64();
  // need() guards the allocation: a corrupt huge length is reported as
  // truncation instead of an out-of-memory attempt.
  need(static_cast<std::size_t>(len));
  std::string s(reinterpret_cast<const char*>(p_),
                static_cast<std::size_t>(len));
  p_ += len;
  return s;
}

void Reader::expect_end() const {
  if (remaining() != 0)
    throw SnapshotError(ErrorKind::kCorrupt,
                        std::to_string(remaining()) +
                            " trailing bytes after payload");
}

}  // namespace asyncmac::snapshot
