// asyncmac/snapshot/format.h
//
// On-disk framing for snapshot files (docs/CHECKPOINT.md):
//
//   offset  size  field
//   0       8     magic "AMACSNAP"
//   8       1     file kind (FileKind)
//   9       4     format version (u32 LE)
//   13      8     payload length (u64 LE)
//   21      4     CRC-32 of the payload (u32 LE)
//   25      ...   payload (kind-specific, snapshot::Writer encoding)
//
// Versioning policy: kFormatVersion bumps on ANY payload schema change.
// Readers refuse files with a different version (kBadVersion) — resumed
// determinism is only guaranteed for snapshots written by the same
// format, so there is no cross-version migration path by design.
//
// write_file is atomic: the frame is written to "<path>.<seq>.tmp" and
// renamed into place, so a crash mid-write never leaves a half-written
// file at the target path (a stale .tmp is ignored by readers). A write
// that fails with an exception removes its staging file.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "snapshot/io.h"

namespace asyncmac::snapshot {

// v2: Ledger::save_state grew the memo_hits/memo_misses pending telemetry
// deltas (channel/ledger.h).
inline constexpr std::uint32_t kFormatVersion = 2;
inline constexpr char kMagic[8] = {'A', 'M', 'A', 'C', 'S', 'N', 'A', 'P'};

enum class FileKind : std::uint8_t {
  kEngineRun = 1,       ///< RunSpec + full Engine state (snapshot/checkpoint.h)
  kGridManifest = 2,    ///< sweep manifest + completed cells (analysis)
  kCampaignCursor = 3,  ///< fuzz-campaign chunk cursor (verify)
};

const char* to_string(FileKind k) noexcept;

/// Frame `payload` and write it atomically (tmp file + rename). Throws
/// SnapshotError(kIo) on any filesystem failure, leaving no staging file.
void write_file(const std::string& path, FileKind kind,
                const std::vector<std::uint8_t>& payload);

/// Read, validate (magic, kind, version, length, CRC — in that order) and
/// return the payload. Throws a typed SnapshotError on every failure.
std::vector<std::uint8_t> read_file(const std::string& path, FileKind kind);

}  // namespace asyncmac::snapshot
