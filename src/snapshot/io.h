// asyncmac/snapshot/io.h
//
// Primitive binary serialization for the checkpoint/resume subsystem
// (docs/CHECKPOINT.md). Writer appends fixed-width little-endian scalars
// to an in-memory buffer; Reader consumes the same encoding with strict
// bounds checks. Every decode failure raises a typed SnapshotError —
// corrupt or truncated input must surface as an exception, never as
// undefined behaviour (pinned by test_snapshot_io under ASan/UBSan).
//
// Layout contract. The encoding is deliberately boring: no varints, no
// alignment, no implicit framing. u8/boolean are one byte; u32 is four
// bytes and u64/i64/f64 are eight, least significant byte first (i64 as
// its two's-complement u64, f64 as its IEEE-754 bit pattern); str is a
// u64 length then the raw bytes. A field starts at whatever offset the
// previous one ended. Determinism of resumed runs, the sweep and live
// wire formats and every pinned hex in the tests rest on these bytes, so
// they must not depend on host endianness or struct layout.
//
// How both hosts keep it. Fixed-width fields are inline and move whole
// words: store_le/load_le pick a plain memcpy when the host is little
// endian (the stored bytes then already are the LE encoding), and
// byte-swap before the memcpy on a big-endian host — the same bytes
// either way, chosen at compile time. Writer appends each field with one
// vector insert; Reader checks the remaining length once per field and
// throws kTruncated (out of line) before touching a byte past the end.
//
// This library depends on nothing else in the repo so that every stateful
// layer (util, channel, sim, core, baselines, adversary, analysis,
// verify) can link it without cycles.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

namespace asyncmac::snapshot {

/// Classification of snapshot failures. Kept coarse on purpose: callers
/// branch on "which guarantee was violated", not on byte offsets.
enum class ErrorKind : std::uint8_t {
  kIo,          ///< file could not be opened/read/written/renamed
  kTruncated,   ///< input ended before a declared field/payload
  kBadMagic,    ///< file does not start with the snapshot magic
  kBadVersion,  ///< written by a newer (or unknown) format version
  kBadCrc,      ///< payload checksum mismatch (bit rot / partial write)
  kCorrupt,     ///< framing/CRC fine but content is inconsistent
  kMismatch,    ///< snapshot is valid but for a different configuration
};

const char* to_string(ErrorKind k) noexcept;

class SnapshotError : public std::runtime_error {
 public:
  SnapshotError(ErrorKind kind, const std::string& message)
      : std::runtime_error(std::string(to_string(kind)) + ": " + message),
        kind_(kind) {}

  ErrorKind kind() const noexcept { return kind_; }

 private:
  ErrorKind kind_;
};

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320). `crc` chains
/// incremental computations; pass 0 to start.
std::uint32_t crc32(const std::uint8_t* data, std::size_t len,
                    std::uint32_t crc = 0) noexcept;

static_assert(std::endian::native == std::endian::little ||
                  std::endian::native == std::endian::big,
              "snapshot encoding supports little- and big-endian hosts");

/// Reverse the byte order of an unsigned word (the big-endian branch of
/// store_le/load_le; compilers lower it to one bswap).
template <typename T>
constexpr T byteswap(T v) noexcept {
  T out = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    out = static_cast<T>((out << 8) | (v & 0xFFu));
    v = static_cast<T>(v >> 8);
  }
  return out;
}

/// Store `v` at `p` (any alignment) as sizeof(T) little-endian bytes.
template <typename T>
inline void store_le(std::uint8_t* p, T v) noexcept {
  if constexpr (std::endian::native == std::endian::big) v = byteswap(v);
  std::memcpy(p, &v, sizeof(T));
}

/// Load sizeof(T) little-endian bytes at `p` (any alignment).
template <typename T>
inline T load_le(const std::uint8_t* p) noexcept {
  T v{};
  std::memcpy(&v, p, sizeof(T));
  if constexpr (std::endian::native == std::endian::big) v = byteswap(v);
  return v;
}

class Writer {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v) { put(v); }
  void u64(std::uint64_t v) { put(v); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  /// Doubles are stored as their IEEE-754 bit pattern; they round-trip
  /// exactly (doubles appear only in reporting fields, never on the
  /// simulation path).
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  /// Length-prefixed (u64) raw bytes.
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  void bytes(const void* p, std::size_t n) {
    if (n == 0) return;  // p may be null for an empty span (vector::data())
    const auto* b = static_cast<const std::uint8_t*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }
  /// Capacity hint for a writer whose final size is known up front.
  void reserve(std::size_t n) { buf_.reserve(n); }

  const std::vector<std::uint8_t>& buffer() const noexcept { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  template <typename T>
  void put(T v) {
    std::uint8_t le[sizeof(T)];
    store_le(le, v);
    // GCC 12 reports the inlined growth path of an empty vector as an
    // out-of-bounds write (-Wstringop-overflow); it is a false positive.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wstringop-overflow"
#endif
    buf_.insert(buf_.end(), le, le + sizeof(T));
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
  }

  std::vector<std::uint8_t> buf_;
};

class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size)
      : p_(data), end_(data + size) {}
  explicit Reader(const std::vector<std::uint8_t>& buf)
      : Reader(buf.data(), buf.size()) {}

  std::uint8_t u8() {
    need(1);
    return *p_++;
  }
  std::uint32_t u32() { return get<std::uint32_t>(); }
  std::uint64_t u64() { return get<std::uint64_t>(); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() { return std::bit_cast<double>(u64()); }
  bool boolean();
  std::string str();
  void bytes(void* out, std::size_t n) {
    if (n == 0) return;  // out may be null for an empty span (vector::data())
    need(n);
    std::memcpy(out, p_, n);
    p_ += n;
  }

  std::size_t remaining() const noexcept {
    return static_cast<std::size_t>(end_ - p_);
  }
  /// A u64 element count, for a list whose elements each take at least
  /// `min_element_bytes` (>= 1) of the input. Throws kCorrupt when that
  /// many elements cannot fit in remaining(), so a corrupt count fails
  /// typed before any reserve() or loop sized by it.
  std::uint64_t count(std::size_t min_element_bytes);
  /// Throws kCorrupt unless the whole input was consumed — catches
  /// writer/reader schema drift early.
  void expect_end() const;

 private:
  /// Throws SnapshotError(kTruncated) unless n more bytes are available.
  void need(std::size_t n) const {
    if (remaining() < n) throw_truncated(n);
  }
  [[noreturn]] void throw_truncated(std::size_t n) const;

  template <typename T>
  T get() {
    need(sizeof(T));
    const T v = load_le<T>(p_);
    p_ += sizeof(T);
    return v;
  }

  const std::uint8_t* p_;
  const std::uint8_t* end_;
};

}  // namespace asyncmac::snapshot
