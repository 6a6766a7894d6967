// asyncmac/verify/scenario.h
//
// Self-contained, serializable descriptions of whole simulator runs, and
// a deterministic generator over them. A Scenario is a snapshot::RunSpec
// (the repo's one run description) plus the generator seed it came from:
// it pins every degree of freedom of an execution — protocol, topology
// (n, R), the adversarial slot-length schedule, the injection adversary,
// the channel variant and the engine seed — so that one plain-data record
// replays a run bit-for-bit on any machine.
//
// ScenarioGen searches adversary space: it derives each case from a
// single 64-bit seed through a splittable PRNG (one child generator per
// decision group), so a failing case replays from its printed seed alone
// and adding draws to one group never perturbs another. This is the
// entry point of the fuzzing campaign (see verify/campaign.h).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "adversary/injectors.h"
#include "sim/cohort_engine.h"
#include "sim/engine.h"
#include "snapshot/checkpoint.h"
#include "util/types.h"

namespace asyncmac::verify {

/// A run description with fuzzing-scale defaults (n = 2, a 100-unit
/// horizon). Of the RunSpec fields, scenario_materials overrides the
/// recording flags (trace and full channel history are always on).
struct Scenario : snapshot::RunSpec {
  /// Generator seed this scenario was derived from (0 = handwritten).
  std::uint64_t case_seed = 0;

  Scenario() {
    n = 2;
    horizon_units = 100;
  }

  bool operator==(const Scenario&) const = default;

  /// One-line human-readable summary (deterministic; used in campaign
  /// output, so its format is part of the jobs-determinism contract).
  std::string describe() const;
};

/// The scenario's engine construction materials (snapshot::build_materials)
/// with trace recording and full channel history enabled — verification
/// needs both. build_engine consumes one build, and the campaign's
/// cohort-equivalence oracle uses it as a sim::LaneBuilder. Throws
/// std::invalid_argument on unknown protocol/policy/injector names.
/// `seed_override` (0 = none) replaces s.seed in the engine configuration
/// only — the slot policy still draws from s.seed, keeping cohort lanes
/// schedule-compatible.
sim::LaneMaterials scenario_materials(const Scenario& s,
                                      std::uint64_t seed_override = 0);

/// Build the engine a scenario describes (see scenario_materials).
std::unique_ptr<sim::Engine> build_engine(const Scenario& s);

/// Run the scenario to its horizon and return the engine.
std::unique_ptr<sim::Engine> run_scenario(const Scenario& s);

/// The protocols the generator samples from: the paper's core algorithms
/// plus every queue-driven baseline.
const std::vector<std::string>& default_protocol_pool();

/// Derive the full scenario a case seed denotes — a pure function of the
/// seed, shared by generation, replay and shrinking.
Scenario scenario_from_seed(std::uint64_t case_seed);

/// As above but restricted to a protocol subset (used by campaign configs
/// that target specific protocols). `pool` must be non-empty.
Scenario scenario_from_seed(std::uint64_t case_seed,
                            const std::vector<std::string>& pool);

class ScenarioGen {
 public:
  /// `campaign_seed` identifies the whole campaign; case i's seed is a
  /// SplitMix64 mix of (campaign_seed, i), so case seeds are decorrelated
  /// and each one regenerates its scenario without the campaign context.
  explicit ScenarioGen(std::uint64_t campaign_seed,
                       std::vector<std::string> pool = {});

  /// Seed of 0-based case `index`.
  std::uint64_t case_seed(std::uint64_t index) const;

  /// Scenario of 0-based case `index`.
  Scenario generate(std::uint64_t index) const;

  const std::vector<std::string>& pool() const { return pool_; }

 private:
  std::uint64_t campaign_seed_;
  std::vector<std::string> pool_;
};

}  // namespace asyncmac::verify
