// The snapshot serialization and framing layer (snapshot/io.h,
// snapshot/format.h): scalar round-trips, strict truncation guards, the
// CRC-32 reference vector, and the corruption matrix — truncated files,
// flipped payload/CRC bytes, future-version headers, wrong kinds and bad
// magic must each raise the documented typed SnapshotError, never
// undefined behaviour (this suite also runs under ASan/UBSan in CI). A
// declared element count that cannot fit in the rest of the input is
// kCorrupt before anything is allocated for it.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "channel/ledger.h"
#include "snapshot/format.h"
#include "snapshot/io.h"

namespace asyncmac {
namespace {

using snapshot::ErrorKind;
using snapshot::FileKind;
using snapshot::Reader;
using snapshot::SnapshotError;
using snapshot::Writer;

/// EXPECT that `fn` throws SnapshotError with `kind`.
template <typename Fn>
void expect_kind(ErrorKind kind, Fn&& fn) {
  try {
    fn();
    FAIL() << "expected SnapshotError(" << snapshot::to_string(kind) << ")";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.kind(), kind) << e.what();
  }
}

std::vector<std::uint8_t> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void dump(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

TEST(SnapshotIo, Crc32ReferenceVectorAndChaining) {
  const std::uint8_t check[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(snapshot::crc32(check, sizeof(check)), 0xCBF43926u);
  // Incremental chaining must equal the one-shot computation.
  const std::uint32_t head = snapshot::crc32(check, 4);
  EXPECT_EQ(snapshot::crc32(check + 4, 5, head), 0xCBF43926u);
  EXPECT_EQ(snapshot::crc32(check, 0), 0u);
}

/// Bit-at-a-time CRC-32 straight from the polynomial: the reference the
/// table-driven crc32 must agree with.
std::uint32_t crc32_bitwise(const std::uint8_t* data, std::size_t len,
                            std::uint32_t crc = 0) {
  crc = ~crc;
  for (std::size_t i = 0; i < len; ++i) {
    crc ^= data[i];
    for (int b = 0; b < 8; ++b)
      crc = (crc & 1) ? (0xEDB88320u ^ (crc >> 1)) : (crc >> 1);
  }
  return ~crc;
}

TEST(SnapshotIo, Crc32MatchesBitwiseReferenceAtEveryOffset) {
  std::vector<std::uint8_t> data(1024 + 8);
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (auto& b : data) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    b = static_cast<std::uint8_t>(x >> 56);
  }
  for (std::size_t offset = 0; offset < 8; ++offset) {
    const std::uint8_t* p = data.data() + offset;
    for (std::size_t len = 0; len <= 1024; ++len)
      ASSERT_EQ(snapshot::crc32(p, len), crc32_bitwise(p, len))
          << "offset " << offset << " length " << len;
  }
  // Chaining: any split of the input gives the one-shot CRC, so the word
  // loop and the byte tail hand over state correctly at every boundary.
  for (const std::size_t len : {std::size_t{0}, std::size_t{7},
                                std::size_t{8}, std::size_t{9},
                                std::size_t{63}, std::size_t{1024}}) {
    for (std::size_t offset = 0; offset < 8; ++offset) {
      const std::uint8_t* p = data.data() + offset;
      const std::uint32_t whole = crc32_bitwise(p, len);
      for (std::size_t split = 0; split <= len; ++split)
        ASSERT_EQ(snapshot::crc32(p + split, len - split,
                                  snapshot::crc32(p, split)),
                  whole)
            << "offset " << offset << " length " << len << " split " << split;
    }
  }
  const std::uint8_t check[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc32_bitwise(check, sizeof(check)), 0xCBF43926u);
}

TEST(SnapshotIo, FixedWidthFieldsAreLittleEndianAtEveryOffset) {
  // Each field lands after `offset` pad bytes, so the word stores and
  // loads run at every alignment; the bytes must be the LE encoding.
  const double f = -1.5;  // bit pattern 0xBFF8000000000000
  ASSERT_EQ(std::bit_cast<std::uint64_t>(f), 0xBFF8000000000000ull);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    Writer w;
    for (std::size_t i = 0; i < offset; ++i) w.u8(0xEE);
    w.u32(0x04030201u);
    w.u64(0x0807060504030201ull);
    w.i64(-2);
    w.f64(f);
    w.str("ab");
    const std::vector<std::uint8_t> want_fields = {
        0x01, 0x02, 0x03, 0x04,                          // u32
        0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08,  // u64
        0xFE, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,  // i64 -2
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xF8, 0xBF,  // f64 -1.5
        0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // str length
        'a',  'b'};
    std::vector<std::uint8_t> want(offset, 0xEE);
    want.insert(want.end(), want_fields.begin(), want_fields.end());
    ASSERT_EQ(w.buffer(), want) << "offset " << offset;

    Reader r(w.buffer());
    for (std::size_t i = 0; i < offset; ++i) EXPECT_EQ(r.u8(), 0xEEu);
    EXPECT_EQ(r.u32(), 0x04030201u);
    EXPECT_EQ(r.u64(), 0x0807060504030201ull);
    EXPECT_EQ(r.i64(), -2);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.f64()), 0xBFF8000000000000ull);
    EXPECT_EQ(r.str(), "ab");
    EXPECT_NO_THROW(r.expect_end());
  }
  // The big-endian hosts' branch: byteswap must reverse exactly.
  static_assert(snapshot::byteswap<std::uint32_t>(0x01020304u) ==
                0x04030201u);
  static_assert(snapshot::byteswap<std::uint64_t>(0x0102030405060708ull) ==
                0x0807060504030201ull);
  // The free helpers encode the same bytes at any address.
  std::uint8_t raw[16] = {};
  for (std::size_t offset = 0; offset < 8; ++offset) {
    snapshot::store_le<std::uint64_t>(raw + offset, 0x0807060504030201ull);
    for (std::size_t i = 0; i < 8; ++i)
      EXPECT_EQ(raw[offset + i], i + 1) << "offset " << offset;
    EXPECT_EQ(snapshot::load_le<std::uint64_t>(raw + offset),
              0x0807060504030201ull);
    snapshot::store_le<std::uint32_t>(raw + offset, 0xA1B2C3D4u);
    EXPECT_EQ(raw[offset], 0xD4u);
    EXPECT_EQ(raw[offset + 3], 0xA1u);
    EXPECT_EQ(snapshot::load_le<std::uint32_t>(raw + offset), 0xA1B2C3D4u);
  }
}

TEST(SnapshotIo, MixedRecordTruncatedAtEveryPrefixThrowsTyped) {
  // One field of every kind. Reading the record back from each proper
  // prefix must fail at exactly the field that crosses the cut, with the
  // byte-exact message, without moving the cursor — and each prefix lives
  // in its own exact-size heap block, so a read past the end trips ASan.
  // The width each need() asks for, in read order (a str is its u64
  // length word, then its body).
  const std::vector<std::size_t> needs = {1, 4, 1, 8, 8, 8, 8, 6, 3};
  Writer w;
  w.u8(0x5A);
  w.u32(0xDEADBEEFu);
  w.boolean(true);
  w.u64(0x0123456789ABCDEFull);
  w.i64(-7);
  w.f64(0.25);
  w.str("record");
  const std::uint8_t blob[] = {1, 2, 3};
  w.bytes(blob, sizeof(blob));
  const std::vector<std::uint8_t> full = w.take();

  const auto read_all = [](Reader& r) {
    EXPECT_EQ(r.u8(), 0x5Au);
    EXPECT_EQ(r.u32(), 0xDEADBEEFu);
    EXPECT_TRUE(r.boolean());
    EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
    EXPECT_EQ(r.i64(), -7);
    EXPECT_EQ(r.f64(), 0.25);
    EXPECT_EQ(r.str(), "record");
    std::uint8_t out[3] = {};
    r.bytes(out, sizeof(out));
    EXPECT_EQ(out[2], 3u);
  };
  {
    Reader r(full);
    read_all(r);
    EXPECT_NO_THROW(r.expect_end());
  }

  for (std::size_t len = 0; len < full.size(); ++len) {
    const auto prefix = std::make_unique<std::uint8_t[]>(len);
    std::copy(full.begin(), full.begin() + static_cast<std::ptrdiff_t>(len),
              prefix.get());
    // The failing need() is the first one that ends past the cut.
    std::size_t start = 0;
    std::size_t need = 0;
    for (const std::size_t n : needs) {
      if (start + n > len) {
        need = n;
        break;
      }
      start += n;
    }
    ASSERT_GT(need, 0u) << "prefix " << len;
    Reader r(prefix.get(), len);
    try {
      read_all(r);
      ADD_FAILURE() << "prefix " << len << " decoded without error";
    } catch (const SnapshotError& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kTruncated) << "prefix " << len;
      EXPECT_EQ(std::string(e.what()),
                "snapshot truncated: need " + std::to_string(need) +
                    " bytes, have " + std::to_string(len - start))
          << "prefix " << len;
      EXPECT_EQ(r.remaining(), len - start) << "prefix " << len;
    }
  }
}

TEST(SnapshotIo, ScalarAndStringRoundTrip) {
  Writer w;
  w.u8(0);
  w.u8(255);
  w.u32(0xDEADBEEFu);
  w.u64(std::numeric_limits<std::uint64_t>::max());
  w.i64(-1);
  w.i64(std::numeric_limits<std::int64_t>::min());
  w.f64(-0.0);
  w.f64(1.0 / 3.0);
  w.boolean(true);
  w.boolean(false);
  w.str("");
  w.str(std::string("nul\0inside", 10));
  const std::uint8_t blob[] = {9, 8, 7};
  w.bytes(blob, sizeof(blob));

  Reader r(w.buffer());
  EXPECT_EQ(r.u8(), 0u);
  EXPECT_EQ(r.u8(), 255u);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(r.i64(), -1);
  EXPECT_EQ(r.i64(), std::numeric_limits<std::int64_t>::min());
  const double neg_zero = r.f64();
  EXPECT_EQ(neg_zero, 0.0);
  EXPECT_TRUE(std::signbit(neg_zero));  // bit pattern, not value, persists
  EXPECT_EQ(r.f64(), 1.0 / 3.0);
  EXPECT_TRUE(r.boolean());
  EXPECT_FALSE(r.boolean());
  EXPECT_EQ(r.str(), "");
  EXPECT_EQ(r.str(), std::string("nul\0inside", 10));
  std::uint8_t out[3] = {};
  r.bytes(out, sizeof(out));
  EXPECT_EQ(out[0], 9u);
  EXPECT_EQ(out[2], 7u);
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_NO_THROW(r.expect_end());
}

TEST(SnapshotIo, TruncatedScalarReadsThrowTyped) {
  const std::uint8_t two[] = {1, 2};
  expect_kind(ErrorKind::kTruncated, [&] { Reader(two, 2).u32(); });
  expect_kind(ErrorKind::kTruncated, [&] { Reader(two, 2).u64(); });
  expect_kind(ErrorKind::kTruncated, [&] { Reader(two, 0).u8(); });
  expect_kind(ErrorKind::kTruncated, [&] {
    std::uint8_t out[3];
    Reader(two, 2).bytes(out, 3);
  });
}

TEST(SnapshotIo, StringLengthGuard) {
  // A declared string length far beyond the input must throw kTruncated
  // up front, not attempt a giant allocation or read past the end.
  Writer w;
  w.u64(std::uint64_t{1} << 40);
  w.u8('x');
  expect_kind(ErrorKind::kTruncated, [&] { Reader(w.buffer()).str(); });
}

TEST(SnapshotIo, CountGuardRejectsCountsThatCannotFit) {
  Writer w;
  w.u64(3);
  for (int i = 0; i < 3; ++i) w.u32(7);
  EXPECT_EQ(Reader(w.buffer()).count(4), 3u);  // exactly fits
  expect_kind(ErrorKind::kCorrupt, [&] { Reader(w.buffer()).count(5); });
  Writer huge;
  huge.u64(~std::uint64_t{0});
  expect_kind(ErrorKind::kCorrupt, [&] { Reader(huge.buffer()).count(1); });
}

TEST(SnapshotIo, ExpectEndRejectsLeftoverBytes) {
  Writer w;
  w.u32(7);
  w.u8(0);  // schema drift: one byte the reader does not consume
  Reader r(w.buffer());
  EXPECT_EQ(r.u32(), 7u);
  expect_kind(ErrorKind::kCorrupt, [&] { r.expect_end(); });
}

// ------------------------------------------------------ file-level framing

std::vector<std::uint8_t> sample_payload() {
  Writer w;
  w.str("checkpoint payload");
  for (std::uint32_t i = 0; i < 64; ++i) w.u32(i * 2654435761u);
  return w.take();
}

TEST(SnapshotFormat, FileRoundTrip) {
  const std::string path = testing::TempDir() + "snap_io_roundtrip.snap";
  const auto payload = sample_payload();
  snapshot::write_file(path, FileKind::kEngineRun, payload);
  EXPECT_EQ(snapshot::read_file(path, FileKind::kEngineRun), payload);

  // An empty payload is a valid frame.
  snapshot::write_file(path, FileKind::kGridManifest, {});
  EXPECT_TRUE(snapshot::read_file(path, FileKind::kGridManifest).empty());
}

TEST(SnapshotFormat, FailedRenameRemovesStagingFile) {
  // The target is a non-empty directory, so the final rename fails after
  // the staging file was fully written; the throw must not leave it.
  namespace fs = std::filesystem;
  const fs::path dir = testing::TempDir() + "snap_io_staging";
  fs::remove_all(dir);
  fs::create_directories(dir / "target");
  dump((dir / "target" / "occupant").string(), {1});

  expect_kind(ErrorKind::kIo, [&] {
    snapshot::write_file((dir / "target").string(), FileKind::kEngineRun,
                         sample_payload());
  });
  std::vector<std::string> left;
  for (const auto& entry : fs::directory_iterator(dir))
    left.push_back(entry.path().filename().string());
  EXPECT_EQ(left, std::vector<std::string>{"target"});
  fs::remove_all(dir);
}

TEST(SnapshotFormat, WrongKindIsMismatch) {
  const std::string path = testing::TempDir() + "snap_io_kind.snap";
  snapshot::write_file(path, FileKind::kEngineRun, sample_payload());
  expect_kind(ErrorKind::kMismatch,
              [&] { snapshot::read_file(path, FileKind::kCampaignCursor); });
}

TEST(SnapshotFormat, MissingFileIsIo) {
  expect_kind(ErrorKind::kIo, [] {
    snapshot::read_file(testing::TempDir() + "snap_io_no_such_file.snap",
                        FileKind::kEngineRun);
  });
}

TEST(SnapshotFormat, TruncatedFileIsTruncated) {
  const std::string path = testing::TempDir() + "snap_io_truncated.snap";
  snapshot::write_file(path, FileKind::kEngineRun, sample_payload());
  auto bytes = slurp(path);
  ASSERT_GT(bytes.size(), 40u);

  // Cut inside the header.
  dump(path, {bytes.begin(), bytes.begin() + 10});
  expect_kind(ErrorKind::kTruncated,
              [&] { snapshot::read_file(path, FileKind::kEngineRun); });

  // Cut inside the payload: header intact, declared length unsatisfied.
  dump(path, {bytes.begin(), bytes.end() - 7});
  expect_kind(ErrorKind::kTruncated,
              [&] { snapshot::read_file(path, FileKind::kEngineRun); });

  // An empty file is also just truncation, not magic failure.
  dump(path, {});
  expect_kind(ErrorKind::kTruncated,
              [&] { snapshot::read_file(path, FileKind::kEngineRun); });
}

TEST(SnapshotFormat, FlippedPayloadOrCrcByteIsBadCrc) {
  const std::string path = testing::TempDir() + "snap_io_crc.snap";
  snapshot::write_file(path, FileKind::kEngineRun, sample_payload());
  const auto good = slurp(path);

  // Flip one bit in the middle of the payload (bit rot).
  auto bytes = good;
  bytes[bytes.size() - 5] ^= 0x10;
  dump(path, bytes);
  expect_kind(ErrorKind::kBadCrc,
              [&] { snapshot::read_file(path, FileKind::kEngineRun); });

  // Flip a byte of the stored CRC itself (header offset 21..24).
  bytes = good;
  bytes[22] ^= 0xFF;
  dump(path, bytes);
  expect_kind(ErrorKind::kBadCrc,
              [&] { snapshot::read_file(path, FileKind::kEngineRun); });
}

TEST(SnapshotFormat, FutureVersionHeaderIsBadVersion) {
  const std::string path = testing::TempDir() + "snap_io_version.snap";
  snapshot::write_file(path, FileKind::kEngineRun, sample_payload());
  auto bytes = slurp(path);
  // Version is the u32 LE at offset 9; pretend a much newer writer.
  bytes[9] = 0x2A;
  bytes[10] = 0;
  bytes[11] = 0;
  bytes[12] = 0;
  dump(path, bytes);
  expect_kind(ErrorKind::kBadVersion,
              [&] { snapshot::read_file(path, FileKind::kEngineRun); });
}

TEST(SnapshotFormat, CorruptMagicIsBadMagic) {
  const std::string path = testing::TempDir() + "snap_io_magic.snap";
  snapshot::write_file(path, FileKind::kEngineRun, sample_payload());
  auto bytes = slurp(path);
  bytes[0] = 'Z';
  dump(path, bytes);
  expect_kind(ErrorKind::kBadMagic,
              [&] { snapshot::read_file(path, FileKind::kEngineRun); });
}

// A valid-CRC file whose ledger state declares a huge archived-history
// count: the load must fail typed, not with std::length_error from
// reserve() (2^58) or std::bad_alloc under an address-space limit (2^31).
TEST(SnapshotFormat, LedgerHistoryCountBeyondInputIsCorrupt) {
  channel::Ledger saved(/*keep_history=*/true);
  Writer w;
  saved.save_state(w);
  std::vector<std::uint8_t> state = w.take();
  // Empty window: keep_history (1), restrained k (4) and jam (1), window
  // count (8), finalized cursor (8), then the history count.
  constexpr std::size_t kHistoryCount = 1 + 4 + 1 + 8 + 8;
  ASSERT_EQ(snapshot::load_le<std::uint64_t>(state.data() + kHistoryCount),
            0u);
  const std::string path = testing::TempDir() + "snap_io_ledger_history.snap";
  for (const std::uint64_t count :
       {std::uint64_t{1} << 58, std::uint64_t{1} << 31}) {
    snapshot::store_le(state.data() + kHistoryCount, count);
    snapshot::write_file(path, FileKind::kEngineRun, state);
    const std::vector<std::uint8_t> payload =
        snapshot::read_file(path, FileKind::kEngineRun);
    expect_kind(ErrorKind::kCorrupt, [&] {
      Reader r(payload);
      channel::Ledger loaded(/*keep_history=*/true);
      loaded.load_state(r);
    });
  }
  std::filesystem::remove(path);
}

TEST(SnapshotFormat, ErrorStringsNameTheKind) {
  // The what() text leads with the kind so untyped catch sites still log
  // something actionable.
  const SnapshotError e(ErrorKind::kBadCrc, "details");
  EXPECT_NE(std::string(e.what()).find(snapshot::to_string(ErrorKind::kBadCrc)),
            std::string::npos);
  // Every kind has a distinct, non-empty name.
  std::vector<std::string> names;
  for (const ErrorKind k :
       {ErrorKind::kIo, ErrorKind::kTruncated, ErrorKind::kBadMagic,
        ErrorKind::kBadVersion, ErrorKind::kBadCrc, ErrorKind::kCorrupt,
        ErrorKind::kMismatch}) {
    names.emplace_back(snapshot::to_string(k));
    EXPECT_FALSE(names.back().empty());
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::unique(names.begin(), names.end()), names.end());
}

}  // namespace
}  // namespace asyncmac
