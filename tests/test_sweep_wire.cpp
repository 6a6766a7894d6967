// The distributed-sweep wire layer (sweep/wire.h, sweep/protocol.h):
// frame round-trips under arbitrary chunking, message payload codecs,
// splittable unit identity, and the corruption matrix — truncated
// frames, flipped payload/CRC bytes, future versions, bad magic, unknown
// types, oversized lengths and mid-handshake severs must each raise the
// documented typed SnapshotError, never undefined behaviour (this suite
// mirrors test_snapshot_io.cpp and runs under ASan/UBSan in CI).
#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "analysis/grid.h"
#include "sweep/protocol.h"
#include "sweep/wire.h"
#include "sweep/worker.h"

namespace asyncmac {
namespace {

using snapshot::ErrorKind;
using snapshot::SnapshotError;
using namespace asyncmac::sweep;

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

std::vector<std::uint8_t> hello_frame(const std::string& name = "w") {
  HelloMsg m;
  m.worker_name = name;
  return to_frame(m);
}

SweepJob small_grid_job() {
  SweepJob job;
  job.kind = JobKind::kGrid;
  job.grid.protocols = {"ca-arrow", "rrw"};
  job.grid.station_counts = {2, 3};
  job.grid.bounds_r = {2};
  job.grid.rho_percents = {40, 60};
  job.grid.slot_policies = {"perstation"};
  job.grid.horizon_units = 500;
  job.grid.seeds = 2;
  return job;
}

// ------------------------------------------------------------ round trips

TEST(SweepWire, FrameRoundTripAllTypes) {
  WelcomeMsg welcome;
  welcome.worker_id = 7;
  welcome.heartbeat_ms = 250;
  welcome.lease_timeout_ms = 4000;
  welcome.job = small_grid_job();
  AssignMsg assign;
  assign.lease_id = 3;
  assign.unit_index = 5;
  assign.unit_id = work_unit_id(1234, 5);
  assign.first = 40;
  assign.count = 8;
  ResultMsg result;
  result.worker_id = 7;
  result.lease_id = 3;
  result.unit_index = 5;
  result.unit_id = assign.unit_id;
  result.payload = {1, 2, 3, 4};
  ShutdownMsg bye;
  bye.reason = "complete";

  FrameDecoder dec;
  dec.feed(hello_frame("alpha"));
  dec.feed(to_frame(welcome));
  dec.feed(to_frame(assign));
  dec.feed(to_frame(result));
  dec.feed(to_frame(bye));

  auto f = dec.next();
  ASSERT_TRUE(f.has_value());
  ASSERT_EQ(f->type, MsgType::kHello);
  EXPECT_EQ(std::get<HelloMsg>(decode_message(*f)).worker_name, "alpha");

  f = dec.next();
  ASSERT_TRUE(f.has_value());
  const auto w = std::get<WelcomeMsg>(decode_message(*f));
  EXPECT_EQ(w.worker_id, 7u);
  EXPECT_EQ(w.heartbeat_ms, 250u);
  EXPECT_EQ(w.lease_timeout_ms, 4000u);
  EXPECT_EQ(w.job.kind, JobKind::kGrid);
  EXPECT_EQ(w.job.grid.protocols, small_grid_job().grid.protocols);
  EXPECT_EQ(w.job.grid.station_counts, small_grid_job().grid.station_counts);
  EXPECT_EQ(w.job.grid.seeds, 2);

  f = dec.next();
  ASSERT_TRUE(f.has_value());
  const auto a = std::get<AssignMsg>(decode_message(*f));
  EXPECT_EQ(a.lease_id, 3u);
  EXPECT_EQ(a.unit_index, 5u);
  EXPECT_EQ(a.unit_id, assign.unit_id);
  EXPECT_EQ(a.first, 40u);
  EXPECT_EQ(a.count, 8u);

  f = dec.next();
  ASSERT_TRUE(f.has_value());
  const auto r = std::get<ResultMsg>(decode_message(*f));
  EXPECT_EQ(r.payload, result.payload);

  f = dec.next();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(std::get<ShutdownMsg>(decode_message(*f)).reason, "complete");

  EXPECT_FALSE(dec.next().has_value());
  EXPECT_EQ(dec.buffered(), 0u);
  EXPECT_NO_THROW(dec.at_eof());
}

TEST(SweepWire, ByteAtATimeChunkingYieldsSameFrames) {
  const auto bytes = to_frame(HeartbeatMsg{42});
  FrameDecoder dec;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    // No frame may surface before the last byte arrives.
    if (i + 1 < bytes.size()) {
      EXPECT_FALSE(dec.next().has_value());
    }
    dec.feed(&bytes[i], 1);
  }
  auto f = dec.next();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(std::get<HeartbeatMsg>(decode_message(*f)).worker_id, 42u);
}

TEST(SweepWire, FuzzJobRoundTrip) {
  WelcomeMsg welcome;
  welcome.worker_id = 1;
  welcome.job.kind = JobKind::kFuzz;
  welcome.job.fuzz.seed = 99;
  welcome.job.fuzz.cases = 1000;
  welcome.job.fuzz.chunk = 64;
  welcome.job.fuzz.protocols = {"ca-arrow"};
  FrameDecoder dec;
  dec.feed(to_frame(welcome));
  const auto w = std::get<WelcomeMsg>(decode_message(*dec.next()));
  EXPECT_EQ(w.job.kind, JobKind::kFuzz);
  EXPECT_EQ(w.job.fuzz.seed, 99u);
  EXPECT_EQ(w.job.fuzz.cases, 1000u);
  EXPECT_EQ(w.job.fuzz.chunk, 64u);
  EXPECT_EQ(w.job.fuzz.protocols, std::vector<std::string>{"ca-arrow"});
}

// --------------------------------------------------------- unit identity

TEST(SweepWire, WorkUnitIdIsStableSplittableAndNeverZero) {
  const std::uint32_t fp = job_fingerprint(small_grid_job());
  // Pure function: same inputs, same id — and ids never collide with the
  // "no unit" sentinel 0.
  EXPECT_EQ(work_unit_id(fp, 0), work_unit_id(fp, 0));
  EXPECT_NE(work_unit_id(fp, 0), 0u);
  EXPECT_NE(work_unit_id(fp, 0), work_unit_id(fp, 1));
  EXPECT_NE(work_unit_id(fp, 0), work_unit_id(fp + 1, 0));
}

TEST(SweepWire, JobFingerprintSeparatesJobs) {
  SweepJob grid = small_grid_job();
  SweepJob fuzz;
  fuzz.kind = JobKind::kFuzz;
  fuzz.fuzz.cases = 128;
  EXPECT_NE(job_fingerprint(grid), job_fingerprint(fuzz));
  SweepJob fuzz2 = fuzz;
  fuzz2.fuzz.seed = 2;
  EXPECT_NE(job_fingerprint(fuzz), job_fingerprint(fuzz2));
}

// ------------------------------------------------------ corruption matrix

TEST(SweepWire, TruncatedFrameSurfacesOnEof) {
  auto bytes = hello_frame();
  bytes.resize(bytes.size() - 1);  // sever one byte short
  FrameDecoder dec;
  dec.feed(bytes);
  EXPECT_FALSE(dec.next().has_value());  // still waiting, not an error...
  expect_kind(ErrorKind::kTruncated, [&] { dec.at_eof(); });  // ...until EOF
}

TEST(SweepWire, MidHandshakeSeverTruncatesHeader) {
  auto bytes = hello_frame();
  bytes.resize(kFrameHeaderBytes / 2);  // not even a full header
  FrameDecoder dec;
  dec.feed(bytes);
  EXPECT_FALSE(dec.next().has_value());
  expect_kind(ErrorKind::kTruncated, [&] { dec.at_eof(); });
}

TEST(SweepWire, FlippedCrcByte) {
  auto bytes = hello_frame();
  bytes[17] ^= 0xFF;  // CRC field
  FrameDecoder dec;
  dec.feed(bytes);
  expect_kind(ErrorKind::kBadCrc, [&] { dec.next(); });
}

TEST(SweepWire, FlippedPayloadByte) {
  auto bytes = hello_frame("worker-name");
  bytes[kFrameHeaderBytes + 3] ^= 0x01;
  FrameDecoder dec;
  dec.feed(bytes);
  expect_kind(ErrorKind::kBadCrc, [&] { dec.next(); });
}

TEST(SweepWire, BadMagic) {
  auto bytes = hello_frame();
  bytes[0] = 'X';
  FrameDecoder dec;
  dec.feed(bytes);
  expect_kind(ErrorKind::kBadMagic, [&] { dec.next(); });
}

TEST(SweepWire, FutureVersionRefused) {
  auto bytes = hello_frame();
  bytes[4] = static_cast<std::uint8_t>(kWireVersion + 1);  // version LSB
  FrameDecoder dec;
  dec.feed(bytes);
  expect_kind(ErrorKind::kBadVersion, [&] { dec.next(); });
}

TEST(SweepWire, UnknownMessageType) {
  auto bytes = hello_frame();
  bytes[8] = 0xEE;
  FrameDecoder dec;
  dec.feed(bytes);
  expect_kind(ErrorKind::kCorrupt, [&] { dec.next(); });
}

TEST(SweepWire, OversizedDeclaredLength) {
  auto bytes = hello_frame();
  for (int i = 9; i < 17; ++i) bytes[static_cast<std::size_t>(i)] = 0xFF;
  FrameDecoder dec;
  dec.feed(bytes);
  // Fails the moment the header is complete — it never waits for 2^64
  // phantom payload bytes.
  expect_kind(ErrorKind::kCorrupt, [&] { dec.next(); });
}

TEST(SweepWire, PoisonedDecoderKeepsThrowingSameKind) {
  auto bytes = hello_frame();
  bytes[0] = 'X';
  FrameDecoder dec;
  dec.feed(bytes);
  expect_kind(ErrorKind::kBadMagic, [&] { dec.next(); });
  expect_kind(ErrorKind::kBadMagic, [&] { dec.next(); });
  expect_kind(ErrorKind::kBadMagic, [&] { dec.feed(bytes); });
  expect_kind(ErrorKind::kBadMagic, [&] { dec.at_eof(); });
}

TEST(SweepWire, EncodeRefusesOversizedPayload) {
  expect_kind(ErrorKind::kCorrupt, [&] {
    std::vector<std::uint8_t> huge(kMaxFramePayload + 1, 0);
    encode_frame(MsgType::kResult, huge);
  });
}

// Payload-level corruption: the frame checks out (CRC is recomputed) but
// the message inside is malformed — decode_message must throw typed.
TEST(SweepWire, TruncatedMessagePayload) {
  Frame f;
  f.type = MsgType::kWelcome;
  f.payload = {1, 2};  // far too short for a Welcome
  expect_kind(ErrorKind::kTruncated, [&] { decode_message(f); });
}

TEST(SweepWire, TrailingGarbageInMessagePayload) {
  auto bytes = to_frame(HeartbeatMsg{1});
  FrameDecoder dec;
  dec.feed(bytes);
  Frame f = *dec.next();
  f.payload.push_back(0);  // one byte too many
  expect_kind(ErrorKind::kCorrupt, [&] { decode_message(f); });
}

TEST(SweepWire, AbsurdElementCountIsCorruptionNotAllocation) {
  // A Welcome whose grid spec declares 2^61 protocols must be rejected
  // by the count guard before any reserve() happens.
  snapshot::Writer w;
  w.u32(1);            // worker id
  w.u64(1000);         // heartbeat
  w.u64(10000);        // lease timeout
  w.u8(1);             // JobKind::kGrid
  w.u64(1ull << 61);   // declared protocol count
  Frame f;
  f.type = MsgType::kWelcome;
  f.payload = w.take();
  expect_kind(ErrorKind::kCorrupt, [&] { decode_message(f); });
}

TEST(SweepWire, UnknownJobKindIsCorrupt) {
  snapshot::Writer w;
  w.u32(1);
  w.u64(1000);
  w.u64(10000);
  w.u8(9);  // no such JobKind
  Frame f;
  f.type = MsgType::kWelcome;
  f.payload = w.take();
  expect_kind(ErrorKind::kCorrupt, [&] { decode_message(f); });
}

// --------------------------------------------------------- result codecs

TEST(SweepWire, GridResultRoundTrip) {
  analysis::ExperimentRecord rec;
  rec.protocol = "ca-arrow";
  rec.n = 2;
  rec.bound_r = 2;
  rec.rho_pct = 40;
  rec.slot_policy = "perstation";
  rec.seed = 17;
  rec.injected = 100;
  rec.delivered = 90;
  rec.delivered_fraction = 0.9;
  const auto payload = encode_grid_result({rec});
  const auto back = decode_grid_result(payload);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].protocol, "ca-arrow");
  EXPECT_EQ(back[0].seed, 17u);
  EXPECT_EQ(back[0].delivered, 90u);
  EXPECT_DOUBLE_EQ(back[0].delivered_fraction, 0.9);
}

TEST(SweepWire, GridResultRejectsTrailingBytes) {
  auto payload = encode_grid_result({});
  payload.push_back(7);
  expect_kind(ErrorKind::kCorrupt, [&] { decode_grid_result(payload); });
}

TEST(SweepWire, FuzzResultRoundTripAndGuards) {
  verify::CaseVerdict v;
  v.index = 3;
  v.case_seed = 123456789;
  v.ok = false;
  v.violation = "synthetic";
  const auto payload = encode_fuzz_result({v});
  const auto back = decode_fuzz_result(payload);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].index, 3u);
  EXPECT_EQ(back[0].case_seed, 123456789u);
  EXPECT_FALSE(back[0].ok);
  EXPECT_EQ(back[0].violation, "synthetic");

  snapshot::Writer w;
  w.u64(1ull << 60);  // absurd verdict count
  const auto bad = w.take();
  expect_kind(ErrorKind::kCorrupt, [&] { decode_fuzz_result(bad); });
}

// --------------------------------------------- grid spec byte layout

std::string to_hex(const std::vector<std::uint8_t>& bytes) {
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  for (std::uint8_t b : bytes) {
    out += kDigits[b >> 4];
    out += kDigits[b & 0xf];
  }
  return out;
}

WelcomeMsg channel_variant_welcome() {
  WelcomeMsg m;
  m.worker_id = 7;
  m.heartbeat_ms = 250;
  m.lease_timeout_ms = 5000;
  m.job = small_grid_job();
  m.job.grid.restrained = {2, false};
  m.job.grid.energy = {true, 3, 1, 0};
  return m;
}

// The Welcome frame and grid fingerprint of a restrained (k = 2, reject)
// + energy (3:1:0) grid, recorded before the channel-variant fields were
// nested: the frame bytes and the fingerprint must never move.
TEST(SweepWire, GridSpecChannelVariantBytesArePinned) {
  const WelcomeMsg m = channel_variant_welcome();
  const auto bytes = to_frame(m);
  EXPECT_EQ(to_hex(bytes),
            "414d57500100000002c400000000000000b2960e6407000000fa000000000000"
            "008813000000000000010200000000000000080000000000000063612d617272"
            "6f77030000000000000072727702000000000000000200000003000000010000"
            "000000000002000000020000000000000028000000000000003c000000000000"
            "0001000000000000000a0000000000000070657273746174696f6e1000000000"
            "000000f401000000000000010000000000000002000000000000000200000000"
            "01030000000000000001000000000000000000000000000000");
  EXPECT_EQ(analysis::grid_fingerprint(m.job.grid), 0xdb032476u);
  EXPECT_EQ(job_fingerprint(m.job), 0xdb032476u);

  FrameDecoder dec;
  dec.feed(bytes);
  const auto f = dec.next();
  ASSERT_TRUE(f.has_value());
  const auto back = std::get<WelcomeMsg>(decode_message(*f));
  EXPECT_EQ(back.job.grid.restrained, m.job.grid.restrained);
  EXPECT_EQ(back.job.grid.energy, m.job.grid.energy);
  EXPECT_EQ(back.job.grid.rho_percents, m.job.grid.rho_percents);
  EXPECT_EQ(to_frame(back), bytes);
}

/// The Welcome frame of `job`, with the 8-byte little-endian encoding of
/// `marker` in its payload replaced by `value` (to forge i64 fields the
/// int-typed spec cannot hold).
std::vector<std::uint8_t> forged_welcome(const SweepJob& job,
                                         std::int64_t marker,
                                         std::int64_t value) {
  WelcomeMsg m;
  m.worker_id = 1;
  m.job = job;
  const auto frame = to_frame(m);
  std::vector<std::uint8_t> payload(frame.begin() + kFrameHeaderBytes,
                                    frame.end());
  snapshot::Writer from, to;
  from.i64(marker);
  to.i64(value);
  const auto it = std::search(payload.begin(), payload.end(),
                              from.buffer().begin(), from.buffer().end());
  EXPECT_NE(it, payload.end());
  if (it != payload.end())
    std::copy(to.buffer().begin(), to.buffer().end(), it);
  return encode_frame(MsgType::kWelcome, payload);
}

std::vector<std::uint8_t> welcome_frame(const SweepJob& job) {
  WelcomeMsg m;
  m.worker_id = 1;
  m.job = job;
  return to_frame(m);
}

// A well-framed Welcome whose grid spec analysis::plan_grid would refuse
// (no seeds, an empty axis, no horizon, n or R of 0) or whose int fields
// overflow is corrupt at decode time, and a worker session fed one fails
// with a typed wire error instead of letting an exception escape.
TEST(SweepWire, MalformedWelcomeGridSpecIsCorrupt) {
  std::vector<std::vector<std::uint8_t>> frames;
  SweepJob job = small_grid_job();
  job.grid.seeds = 0;
  frames.push_back(welcome_frame(job));
  for (int axis = 0; axis < 5; ++axis) {
    job = small_grid_job();
    if (axis == 0) job.grid.protocols.clear();
    if (axis == 1) job.grid.station_counts.clear();
    if (axis == 2) job.grid.bounds_r.clear();
    if (axis == 3) job.grid.rho_percents.clear();
    if (axis == 4) job.grid.slot_policies.clear();
    frames.push_back(welcome_frame(job));
  }
  job = small_grid_job();
  job.grid.horizon_units = 0;
  frames.push_back(welcome_frame(job));
  job = small_grid_job();
  job.grid.bounds_r = {0};  // a worker would divide by R in the slot policy
  frames.push_back(welcome_frame(job));
  job = small_grid_job();
  job.grid.station_counts = {2, 0};
  frames.push_back(welcome_frame(job));
  job = small_grid_job();
  job.grid.seeds = 0x5eed5eed;
  frames.push_back(
      forged_welcome(job, 0x5eed5eed, std::int64_t{INT_MAX} + 1));
  job = small_grid_job();
  job.grid.rho_percents = {40, 0x5eed5eed};
  frames.push_back(
      forged_welcome(job, 0x5eed5eed, std::int64_t{INT_MIN} - 1));

  for (std::size_t i = 0; i < frames.size(); ++i) {
    SCOPED_TRACE(i);
    FrameDecoder dec;
    dec.feed(frames[i]);
    const auto f = dec.next();
    ASSERT_TRUE(f.has_value());
    expect_kind(ErrorKind::kCorrupt, [&] { decode_message(*f); });

    WorkerSession w;
    w.start(0);
    EXPECT_NO_THROW(w.on_bytes(frames[i].data(), frames[i].size(), 0));
    EXPECT_TRUE(w.failed());
    EXPECT_NE(w.error().find("wire error"), std::string::npos) << w.error();
  }
}

// plan_grid builds one cell per block, so a Welcome naming a protocol or
// slot policy this build does not ship fails the session cleanly
// instead of throwing out of it.
TEST(SweepWire, WelcomeWithUnknownNamesFailsTheSession) {
  for (int field = 0; field < 2; ++field) {
    SCOPED_TRACE(field);
    SweepJob job = small_grid_job();
    if (field == 0) job.grid.protocols = {"no-such-protocol"};
    if (field == 1) job.grid.slot_policies = {"no-such-policy"};
    const auto frame = welcome_frame(job);
    WorkerSession w;
    w.start(0);
    EXPECT_NO_THROW(w.on_bytes(frame.data(), frame.size(), 0));
    EXPECT_TRUE(w.failed());
    EXPECT_NE(w.error().find("cannot plan the grid"), std::string::npos)
        << w.error();
  }
}

}  // namespace
}  // namespace asyncmac
