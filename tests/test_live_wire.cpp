// Tests for the live-mode datagram codec (live/wire.h): round-trips for
// every message type and typed SnapshotError rejection of malformed
// datagrams — a live daemon feeds raw socket bytes straight into
// decode(), so every corruption class must surface as a catchable typed
// error, never UB or an allocation bomb.
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "live/wire.h"
#include "snapshot/io.h"

namespace asyncmac::live {
namespace {

using snapshot::ErrorKind;
using snapshot::SnapshotError;

ErrorKind decode_error(const std::vector<std::uint8_t>& bytes) {
  try {
    (void)decode(bytes);
  } catch (const SnapshotError& e) {
    return e.kind();
  }
  ADD_FAILURE() << "decode accepted a malformed datagram";
  return ErrorKind::kIo;
}

// ------------------------------------------------------------ round trips

TEST(LiveWire, JoinRoundTrip) {
  Msg m;
  m.type = MsgType::kJoin;
  m.station = 3;
  m.name = "station-3";
  const Msg d = decode(encode(m));
  EXPECT_EQ(d.type, MsgType::kJoin);
  EXPECT_EQ(d.station, 3u);
  EXPECT_EQ(d.name, "station-3");
}

TEST(LiveWire, WelcomeRoundTrip) {
  Msg m;
  m.type = MsgType::kWelcome;
  m.station = 2;
  m.name = "ca-arrow";
  m.n = 4;
  m.bound_r = 3;
  m.rng_seed = 0xdeadbeefcafe1234ULL;
  m.horizon_ticks = 100 * kTicksPerUnit;
  m.injections = {{7, 2 * kTicksPerUnit}, {9 * kTicksPerUnit, kTicksPerUnit}};
  const Msg d = decode(encode(m));
  EXPECT_EQ(d.type, MsgType::kWelcome);
  EXPECT_EQ(d.station, 2u);
  EXPECT_EQ(d.name, "ca-arrow");
  EXPECT_EQ(d.n, 4u);
  EXPECT_EQ(d.bound_r, 3u);
  EXPECT_EQ(d.rng_seed, 0xdeadbeefcafe1234ULL);
  EXPECT_EQ(d.horizon_ticks, 100 * kTicksPerUnit);
  ASSERT_EQ(d.injections.size(), 2u);
  EXPECT_EQ(d.injections[0].injected_at, 7);
  EXPECT_EQ(d.injections[0].cost, 2 * kTicksPerUnit);
  EXPECT_EQ(d.injections[1].injected_at, 9 * kTicksPerUnit);
}

TEST(LiveWire, BoundaryRoundTrip) {
  for (const SlotAction a : {SlotAction::kListen, SlotAction::kTransmitPacket,
                             SlotAction::kTransmitControl}) {
    Msg m;
    m.type = MsgType::kBoundary;
    m.station = 1;
    m.slot_index = 42;
    m.action = a;
    const Msg d = decode(encode(m));
    EXPECT_EQ(d.slot_index, 42u);
    EXPECT_EQ(d.action, a);
  }
}

TEST(LiveWire, GrantRoundTrip) {
  Msg m;
  m.type = MsgType::kGrant;
  m.slot_index = 7;
  m.length = 3 * kTicksPerUnit;
  const Msg d = decode(encode(m));
  EXPECT_EQ(d.slot_index, 7u);
  EXPECT_EQ(d.length, 3 * kTicksPerUnit);
}

TEST(LiveWire, SlotEndRoundTrip) {
  Msg m;
  m.type = MsgType::kSlotEnd;
  m.station = 5;
  m.slot_index = 99;
  const Msg d = decode(encode(m));
  EXPECT_EQ(d.station, 5u);
  EXPECT_EQ(d.slot_index, 99u);
}

TEST(LiveWire, FeedbackRoundTrip) {
  for (const Feedback f :
       {Feedback::kSilence, Feedback::kBusy, Feedback::kAck}) {
    Msg m;
    m.type = MsgType::kFeedback;
    m.slot_index = 12;
    m.feedback = f;
    m.delivered = (f == Feedback::kAck);
    m.injections = {{55, kTicksPerUnit}};
    const Msg d = decode(encode(m));
    EXPECT_EQ(d.feedback, f);
    EXPECT_EQ(d.delivered, f == Feedback::kAck);
    ASSERT_EQ(d.injections.size(), 1u);
    EXPECT_EQ(d.injections[0].injected_at, 55);
  }
}

TEST(LiveWire, FinRoundTrip) {
  Msg m;
  m.type = MsgType::kFin;
  m.ok = false;
  m.name = "station 2 transmitted with an empty queue";
  const Msg d = decode(encode(m));
  EXPECT_FALSE(d.ok);
  EXPECT_EQ(d.name, "station 2 transmitted with an empty queue");
}

// ------------------------------------------------------------ pinned bytes

std::string hex(const std::vector<std::uint8_t>& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t b : bytes) {
    out += kDigits[b >> 4];
    out += kDigits[b & 0xF];
  }
  return out;
}

/// One datagram of each message type, every field set to a value whose
/// bytes are distinct, so a reordered, resized or byte-swapped field
/// changes the hex. The expected strings were recorded from the
/// byte-at-a-time codec; any codec rewrite must reproduce them exactly.
TEST(LiveWire, EveryMessageTypeMatchesPinnedBytes) {
  Msg join;
  join.type = MsgType::kJoin;
  join.station = 0x01020304;
  join.name = "st";

  Msg welcome;
  welcome.type = MsgType::kWelcome;
  welcome.station = 2;
  welcome.name = "ca-arrow";
  welcome.n = 5;
  welcome.bound_r = 3;
  welcome.rng_seed = 0x1122334455667788ULL;
  welcome.horizon_ticks = -2;
  welcome.injections = {{0x0A0B0C0D, 0x10}, {-1, 0x0102}};

  Msg boundary;
  boundary.type = MsgType::kBoundary;
  boundary.station = 7;
  boundary.slot_index = 0x0102030405060708ULL;
  boundary.action = SlotAction::kTransmitControl;

  Msg grant;
  grant.type = MsgType::kGrant;
  grant.slot_index = 42;
  grant.length = 3 * kTicksPerUnit;

  Msg slot_end;
  slot_end.type = MsgType::kSlotEnd;
  slot_end.station = 0xFFFFFFFEu;
  slot_end.slot_index = 1;

  Msg feedback;
  feedback.type = MsgType::kFeedback;
  feedback.slot_index = 12;
  feedback.feedback = Feedback::kAck;
  feedback.delivered = true;
  feedback.injections = {{55, kTicksPerUnit}};

  Msg fin;
  fin.type = MsgType::kFin;
  fin.ok = true;
  fin.name = "horizon";

  const std::vector<std::pair<Msg, std::string>> cases = {
      {join,
        "414d4c4401000000010e000000000000006094e70f04030201020000"
        "00000000007374"},
      {welcome,
        "414d4c44010000000254000000000000000e9fcb8b02000000080000"
        "000000000063612d6172726f77050000000300000088776655443322"
        "11feffffffffffffff02000000000000000d0c0b0a00000000100000"
        "0000000000ffffffffffffffff0201000000000000"},
      {boundary,
        "414d4c4401000000030d000000000000007fc2a3e307000000080706"
        "050403020102"},
      {grant,
        "414d4c440100000004100000000000000061c059f22a000000000000"
        "00f0fd200000000000"},
      {slot_end,
        "414d4c4401000000050c000000000000000eb3f0a8feffffff010000"
        "0000000000"},
      {feedback,
        "414d4c4401000000062200000000000000433e95770c000000000000"
        "0002010100000000000000370000000000000050ff0a0000000000"},
      {fin,
        "414d4c440100000007100000000000000044b71c4c01070000000000"
        "0000686f72697a6f6e"},
  };
  for (const auto& [msg, want] : cases) {
    const std::vector<std::uint8_t> bytes = encode(msg);
    EXPECT_EQ(hex(bytes), want) << to_string(msg.type);
    EXPECT_EQ(encode(decode(bytes)), bytes) << to_string(msg.type);
  }
}

// ------------------------------------------------------- malformed input

TEST(LiveWire, ShortDatagramIsTruncated) {
  std::vector<std::uint8_t> bytes(kDatagramHeaderBytes - 1, 0);
  EXPECT_EQ(decode_error(bytes), ErrorKind::kTruncated);
  EXPECT_EQ(decode_error({}), ErrorKind::kTruncated);
}

TEST(LiveWire, BadMagicIsRejected) {
  Msg m;
  m.type = MsgType::kGrant;
  std::vector<std::uint8_t> bytes = encode(m);
  bytes[0] ^= 0xff;
  EXPECT_EQ(decode_error(bytes), ErrorKind::kBadMagic);
}

TEST(LiveWire, BadVersionIsRejected) {
  Msg m;
  m.type = MsgType::kGrant;
  std::vector<std::uint8_t> bytes = encode(m);
  bytes[4] = 0x7f;  // version LE byte 0
  EXPECT_EQ(decode_error(bytes), ErrorKind::kBadVersion);
}

TEST(LiveWire, UnknownTypeIsCorrupt) {
  Msg m;
  m.type = MsgType::kGrant;
  std::vector<std::uint8_t> bytes = encode(m);
  bytes[8] = 0xee;
  EXPECT_EQ(decode_error(bytes), ErrorKind::kCorrupt);
  bytes[8] = 0;
  EXPECT_EQ(decode_error(bytes), ErrorKind::kCorrupt);
}

TEST(LiveWire, TruncatedPayloadIsRejected) {
  Msg m;
  m.type = MsgType::kWelcome;
  m.name = "ca-arrow";
  std::vector<std::uint8_t> bytes = encode(m);
  bytes.pop_back();
  EXPECT_EQ(decode_error(bytes), ErrorKind::kTruncated);
}

TEST(LiveWire, TrailingBytesAreRejected) {
  Msg m;
  m.type = MsgType::kGrant;
  std::vector<std::uint8_t> bytes = encode(m);
  bytes.push_back(0x00);  // header length no longer matches
  EXPECT_EQ(decode_error(bytes), ErrorKind::kTruncated);
}

TEST(LiveWire, AbsurdPayloadLengthIsCorrupt) {
  Msg m;
  m.type = MsgType::kGrant;
  std::vector<std::uint8_t> bytes = encode(m);
  // Overwrite the u64 payload length (offset 9) with a huge value.
  for (std::size_t i = 0; i < 8; ++i) bytes[9 + i] = 0xff;
  EXPECT_EQ(decode_error(bytes), ErrorKind::kCorrupt);
}

TEST(LiveWire, FlippedPayloadByteFailsCrc) {
  Msg m;
  m.type = MsgType::kFeedback;
  m.slot_index = 3;
  m.feedback = Feedback::kAck;
  m.delivered = true;
  std::vector<std::uint8_t> bytes = encode(m);
  bytes.back() ^= 0x01;
  EXPECT_EQ(decode_error(bytes), ErrorKind::kBadCrc);
}

/// Frame an arbitrary payload as a datagram of the given type, with a
/// correct length and CRC — the codec's header checks must all pass so
/// the payload-level validation is what rejects it.
std::vector<std::uint8_t> frame(MsgType type,
                                const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> out;
  out.reserve(kDatagramHeaderBytes + payload.size());
  for (std::size_t i = 0; i < 4; ++i)
    out.push_back(static_cast<std::uint8_t>(kDatagramMagic[i]));
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<std::uint8_t>(kLiveWireVersion >> (8 * i)));
  out.push_back(static_cast<std::uint8_t>(type));
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<std::uint8_t>(
        static_cast<std::uint64_t>(payload.size()) >> (8 * i)));
  const std::uint32_t crc = snapshot::crc32(payload.data(), payload.size());
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<std::uint8_t>(crc >> (8 * i)));
  for (const std::uint8_t b : payload) out.push_back(b);
  return out;
}

TEST(LiveWire, AbsurdInjectionCountIsCorrupt) {
  // A Feedback payload claiming ~2^63 injections must be rejected before
  // the decoder tries to reserve that much memory.
  snapshot::Writer w;
  w.u64(3);                       // slot_index
  w.u8(2);                        // feedback = ack
  w.boolean(true);                // delivered
  w.u64(0x7fffffffffffffffULL);   // injection count
  EXPECT_EQ(decode_error(frame(MsgType::kFeedback, w.buffer())),
            ErrorKind::kCorrupt);
}

TEST(LiveWire, BadEnumValuesAreCorrupt) {
  {
    snapshot::Writer w;
    w.u32(1);   // station
    w.u64(1);   // slot_index
    w.u8(9);    // not a SlotAction
    EXPECT_EQ(decode_error(frame(MsgType::kBoundary, w.buffer())),
              ErrorKind::kCorrupt);
  }
  {
    snapshot::Writer w;
    w.u64(1);   // slot_index
    w.u8(9);    // not a Feedback
    EXPECT_EQ(decode_error(frame(MsgType::kFeedback, w.buffer())),
              ErrorKind::kCorrupt);
  }
}

TEST(LiveWire, PayloadWithTrailingGarbageIsRejected) {
  // A well-formed Grant payload with one extra byte: header length and
  // CRC both match, so only the reader's end-of-payload check can catch
  // the mismatch (a shorter-than-claimed payload would mis-decode).
  snapshot::Writer w;
  w.u64(7);                   // slot_index
  w.i64(3 * kTicksPerUnit);   // length
  std::vector<std::uint8_t> payload = w.buffer();
  payload.push_back(0xab);
  EXPECT_THROW((void)decode(frame(MsgType::kGrant, payload)), SnapshotError);
}

}  // namespace
}  // namespace asyncmac::live
