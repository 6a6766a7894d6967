// asyncmac/snapshot/checkpoint.h
//
// High-level checkpoint/resume for whole engine runs (docs/CHECKPOINT.md).
//
// A checkpoint file (FileKind::kEngineRun) carries two sections:
//   1. a RunSpec — the declarative configuration of the run (protocol
//      registry name, topology, adversaries, channel variant, seed,
//      recording flags), and
//   2. the Engine's serialized mutable state (sim::Engine::save_state).
// Resume rebuilds the engine from the RunSpec through build_engine — the
// one assembly path every run mode, grid cell and fuzz scenario uses —
// then overwrites its mutable state; from that point the run continues
// bit-for-bit as the saved run would have (the determinism contract
// pinned by tests/test_checkpoint_engine.cpp).
//
// The AutoSaver is the standard EngineConfig::checkpoint_sink: it writes
// rotating, atomically-renamed snapshot files into a directory with
// bounded retention.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "adversary/injectors.h"
#include "channel/transmission.h"
#include "energy/model.h"
#include "sim/cohort_engine.h"
#include "sim/engine.h"
#include "snapshot/format.h"
#include "snapshot/io.h"
#include "util/types.h"

namespace asyncmac::snapshot {

/// Declarative description of an engine run — everything needed to
/// reconstruct an identical Engine before loading a snapshot into it. The
/// single run description: verify::Scenario derives from it, grid cells
/// map onto it, and the CLI's run modes fill one in.
struct RunSpec {
  std::string protocol = "ao-arrow";  ///< analysis registry name
  std::uint32_t n = 4;
  std::uint32_t bound_r = 2;
  std::string slot_policy = "perstation";  ///< adversary policy name
  bool has_injector = true;
  adversary::InjectorSpec injector;
  std::uint64_t seed = 1;            ///< engine + slot-policy seed
  Tick horizon_units = 100000;       ///< intended run length (time units)
  bool keep_channel_history = false;
  bool record_trace = false;
  bool record_deliveries = false;
  bool allow_control = true;
  std::uint64_t prune_interval = 4096;
  std::uint64_t checkpoint_interval = 0;
  /// k-restrained channel admission (k = 0: unrestrained).
  channel::RestrainedSpec restrained;
  /// Per-station energy accounting model (energy/model.h).
  energy::EnergyModel energy;

  bool operator==(const RunSpec&) const = default;
};

/// The channel-variant pair's payload encoding (k, jam, then the energy
/// model), shared by the RunSpec codec, the sweep wire's grid spec and
/// analysis::grid_fingerprint.
void save_channel_variant(Writer& w, const channel::RestrainedSpec& restrained,
                          const energy::EnergyModel& energy);
void load_channel_variant(Reader& r, channel::RestrainedSpec& restrained,
                          energy::EnergyModel& energy);

void save_run_spec(Writer& w, const RunSpec& spec);
RunSpec load_run_spec(Reader& r);

/// The engine materials a spec describes: configuration, protocol
/// instances (analysis registry), slot policy and injector
/// (adversary::make_slot_policy/make_injector). The one place a run is
/// assembled — build_engine consumes one build, and cohort callers use it
/// as a sim::LaneBuilder. The checkpoint_sink is left unset. Throws
/// std::invalid_argument on unknown protocol / policy / injector names.
sim::LaneMaterials build_materials(const RunSpec& spec);

/// Build a fresh engine from the spec (see build_materials). Install a
/// checkpoint_sink after construction if the run should autosave.
std::unique_ptr<sim::Engine> build_engine(const RunSpec& spec);

/// Serialize spec + engine state into a kEngineRun payload (unframed).
std::vector<std::uint8_t> encode_checkpoint(const RunSpec& spec,
                                            const sim::Engine& engine);

/// Frame and atomically write a checkpoint file.
void write_checkpoint(const std::string& path, const RunSpec& spec,
                      const sim::Engine& engine);

struct ResumedRun {
  RunSpec spec;
  std::unique_ptr<sim::Engine> engine;
};

/// Decode a kEngineRun payload: rebuild the engine from the embedded
/// RunSpec and load the saved state into it. Throws SnapshotError on
/// corrupt payloads.
ResumedRun decode_checkpoint(const std::vector<std::uint8_t>& payload);

/// Read + validate a checkpoint file (magic, kind, version, CRC), then
/// decode it. Throws SnapshotError with a typed kind on every failure
/// mode; never undefined behaviour on corrupt input.
ResumedRun resume_checkpoint(const std::string& path);

/// Rotating checkpoint writer for EngineConfig::checkpoint_sink. Writes
/// ckpt-NNNNNN.snap files into `dir` (created if missing) and removes the
/// oldest once more than `retention` exist. Write errors propagate as
/// SnapshotError(kIo) — a checkpointed run should fail loudly, not
/// silently stop snapshotting.
class AutoSaver {
 public:
  AutoSaver(std::string dir, RunSpec spec, std::size_t retention = 3);

  void operator()(const sim::Engine& engine) { save(engine); }
  void save(const sim::Engine& engine);

  /// Paths currently on disk, oldest first.
  const std::vector<std::string>& files() const noexcept { return files_; }
  /// Most recent checkpoint path (empty before the first save).
  std::string latest() const {
    return files_.empty() ? std::string() : files_.back();
  }

 private:
  std::string dir_;
  RunSpec spec_;
  std::size_t retention_;
  std::uint64_t counter_ = 0;
  std::vector<std::string> files_;
};

}  // namespace asyncmac::snapshot
