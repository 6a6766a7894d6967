// asyncmac/verify/campaign.h
//
// The property-fuzzing campaign: generate scenarios from seeds
// (verify/scenario.h), run each one, and check every global trace
// invariant plus the differential channel oracle on the result. Failing
// cases are shrunk — fewer stations, shorter horizon, simpler slot
// lengths, fewer injections — to a minimal counterexample fit for a
// committed repro file (verify/repro.h).
//
// Determinism contract: for a fixed (seed, cases, protocol pool) the
// verdict of every case, the failure list, the shrunk counterexample and
// all summary text are byte-identical for every jobs value — cases are
// enumerated up front, each worker writes into its case's pre-sized
// slot, and shrinking runs serially on the first failure by case index
// (mirroring analysis::run_grid's determinism scheme).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "trace/invariants.h"
#include "verify/scenario.h"

namespace asyncmac::verify {

/// Extra per-case predicate, checked after the built-in invariants.
/// Tests use this to inject synthetic violations and exercise the
/// shrinker/repro machinery on a stack that (correctly) refuses to fail
/// on its own.
using CaseCheck =
    std::function<trace::CheckResult(const Scenario&, const sim::Engine&)>;

struct CampaignConfig {
  std::uint64_t seed = 1;      ///< campaign seed (case seeds derive)
  std::uint64_t cases = 100;   ///< number of generated cases
  unsigned jobs = 0;           ///< worker threads; 0 = all cores
  /// Wall-clock budget in seconds; 0 = unlimited. Checked between
  /// fixed-size chunks, so per-case verdicts stay deterministic — only
  /// *how many* chunks run can vary under a budget.
  int time_budget_seconds = 0;
  bool shrink = true;          ///< shrink the first failure
  /// Restrict generation to these protocols (empty = default pool).
  std::vector<std::string> protocols;
  CaseCheck extra_check;       ///< optional synthetic-violation hook
  /// When non-empty, the campaign writes a cursor file here after every
  /// chunk (verdicts so far + the case index to resume at, see
  /// docs/CHECKPOINT.md) and, on start, resumes from an existing cursor
  /// instead of re-running completed chunks. Verdicts are byte-identical
  /// to an uninterrupted campaign. A cursor from a different (seed,
  /// cases, protocol pool) raises snapshot::SnapshotError(kMismatch).
  std::string checkpoint_path;
  /// Test hook: stop cleanly after at least this many cases (rounded up
  /// to a chunk boundary), reporting budget_exhausted — a deterministic
  /// stand-in for killing the process mid-campaign. 0 = off.
  std::uint64_t stop_after_cases = 0;
};

/// Run one scenario and check everything: slot contiguity, feedback
/// consistency (Ledger replay), the reference-channel differential
/// oracle, the prune-with-history ledger cross-check, CA-ARRoW's
/// collision-freedom and cyclic turn order when applicable, the engine
/// state checks (check_engine_state), and the optional extra check. An exception escaping the engine (a tripped
/// AM_CHECK) is reported as a failing result, not propagated — a fuzzer
/// must survive the bugs it finds.
trace::CheckResult run_case(const Scenario& s,
                            const CaseCheck& extra = nullptr);

/// The engine-state checks of run_case. `first` is the engine built from
/// `build()` (s's materials) and run to s's horizon; every check compares
/// a full save_state snapshot with first's, byte for byte. Which checks
/// run depends on sim::lockstep_blocker(build()), whose reason is counted
/// into the cohort.ineligible.* telemetry:
///  - lockstep-eligible (ca-arrow with sync/max/perstation slots): a
///    4-lane sim::CohortEngine. Lane 0 replays s; lane 1 runs another
///    seed and is not compared; lane 2 stops at horizon/2, retires and
///    resumes; lane 3 runs s with halved rho and longer bursts and is
///    compared with its own scalar run.
///  - otherwise: (1) a full re-run from build() (determinism); (2) a fresh
///    engine runs to horizon/2, its save_state bytes load into a second
///    fresh engine, and that engine runs to the horizon (resume through
///    the snapshot codec).
trace::CheckResult check_engine_state(const Scenario& s,
                                      const sim::LaneBuilder& build,
                                      const sim::Engine& first);

struct CaseVerdict {
  std::uint64_t index = 0;      ///< 0-based case index in the campaign
  std::uint64_t case_seed = 0;  ///< replays via scenario_from_seed
  bool ok = true;
  std::string violation;        ///< first violation, empty when ok
};

struct FailedCase {
  CaseVerdict verdict;
  Scenario scenario;
};

struct CampaignResult {
  std::uint64_t cases_requested = 0;
  std::uint64_t cases_run = 0;
  bool budget_exhausted = false;
  std::vector<CaseVerdict> verdicts;  ///< one per run case, by index
  std::vector<FailedCase> failures;   ///< ascending case index
  /// Minimal counterexample shrunk from the first failure (when
  /// config.shrink and there was one).
  bool shrunk_valid = false;
  Scenario shrunk;
  std::string shrunk_violation;
};

CampaignResult run_campaign(const CampaignConfig& config);

/// Greedily minimize a failing scenario while it keeps failing
/// run_case(s, extra): fewer stations, shorter horizon, simpler slot
/// policy, simpler/lighter injection. Deterministic; bounded by a fixed
/// candidate-evaluation budget. `violation_out` receives the violation
/// of the returned scenario.
Scenario shrink_counterexample(Scenario s, const CaseCheck& extra,
                               std::string* violation_out);

/// Deterministic human-readable summary (part of the jobs-determinism
/// contract; the CLI prints exactly this).
std::string summarize(const CampaignResult& result);

}  // namespace asyncmac::verify
