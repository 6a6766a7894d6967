#include "sweep/wire.h"

#include <cstring>

namespace asyncmac::sweep {

namespace {

using snapshot::ErrorKind;
using snapshot::SnapshotError;

}  // namespace

const char* to_string(MsgType t) noexcept {
  switch (t) {
    case MsgType::kHello: return "hello";
    case MsgType::kWelcome: return "welcome";
    case MsgType::kRequestWork: return "request-work";
    case MsgType::kAssign: return "assign";
    case MsgType::kResult: return "result";
    case MsgType::kResultAck: return "result-ack";
    case MsgType::kHeartbeat: return "heartbeat";
    case MsgType::kNoWork: return "no-work";
    case MsgType::kShutdown: return "shutdown";
  }
  return "unknown";
}

bool known_type(std::uint8_t t) noexcept {
  return t >= static_cast<std::uint8_t>(MsgType::kHello) &&
         t <= static_cast<std::uint8_t>(MsgType::kShutdown);
}

std::vector<std::uint8_t> encode_frame(
    MsgType type, const std::vector<std::uint8_t>& payload) {
  if (payload.size() > kMaxFramePayload)
    throw SnapshotError(ErrorKind::kCorrupt,
                        "frame payload exceeds kMaxFramePayload");
  snapshot::Writer w;
  w.bytes(kFrameMagic, sizeof(kFrameMagic));
  w.u32(kWireVersion);
  w.u8(static_cast<std::uint8_t>(type));
  w.u64(payload.size());
  w.u32(snapshot::crc32(payload.data(), payload.size()));
  w.bytes(payload.data(), payload.size());
  return w.take();
}

void FrameDecoder::feed(const std::uint8_t* data, std::size_t n) {
  if (poisoned_)
    throw SnapshotError(poison_kind_, "wire decoder poisoned: stream lost sync");
  buf_.insert(buf_.end(), data, data + n);
}

[[noreturn]] void FrameDecoder::poison(ErrorKind kind, const char* what) {
  poisoned_ = true;
  poison_kind_ = kind;
  throw SnapshotError(kind, what);
}

void FrameDecoder::compact() {
  // Reclaim the consumed prefix once it dominates the buffer, keeping
  // feed() amortized O(bytes).
  if (pos_ > 4096 && pos_ * 2 > buf_.size()) {
    buf_.erase(buf_.begin(),
               buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
}

std::optional<Frame> FrameDecoder::next() {
  if (poisoned_)
    throw SnapshotError(poison_kind_, "wire decoder poisoned: stream lost sync");
  if (buffered() < kFrameHeaderBytes) return std::nullopt;
  const std::uint8_t* h = buf_.data() + pos_;

  // Validate header fields in offset order the moment the header is
  // complete — a garbage stream fails fast instead of waiting for a
  // phantom payload length to "arrive".
  if (std::memcmp(h, kFrameMagic, sizeof(kFrameMagic)) != 0)
    poison(ErrorKind::kBadMagic, "frame does not start with AMWP");
  const std::uint32_t version = snapshot::load_le<std::uint32_t>(h + 4);
  if (version != kWireVersion)
    poison(ErrorKind::kBadVersion,
           "frame written by a different wire-protocol version");
  const std::uint8_t type = h[8];
  if (!known_type(type))
    poison(ErrorKind::kCorrupt, "unknown message type in frame header");
  const std::uint64_t len = snapshot::load_le<std::uint64_t>(h + 9);
  if (len > kMaxFramePayload)
    poison(ErrorKind::kCorrupt, "declared frame payload length is oversized");
  const std::uint32_t crc = snapshot::load_le<std::uint32_t>(h + 17);

  if (buffered() < kFrameHeaderBytes + len) return std::nullopt;
  const std::uint8_t* payload = h + kFrameHeaderBytes;
  if (snapshot::crc32(payload, static_cast<std::size_t>(len)) != crc)
    poison(ErrorKind::kBadCrc, "frame payload checksum mismatch");

  Frame f;
  f.type = static_cast<MsgType>(type);
  f.payload.assign(payload, payload + len);
  pos_ += kFrameHeaderBytes + static_cast<std::size_t>(len);
  compact();
  return f;
}

void FrameDecoder::at_eof() const {
  if (poisoned_)
    throw SnapshotError(poison_kind_, "wire decoder poisoned: stream lost sync");
  if (buffered() != 0)
    throw SnapshotError(ErrorKind::kTruncated,
                        "stream severed mid-frame (partial frame buffered)");
}

}  // namespace asyncmac::sweep
