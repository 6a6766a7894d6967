// asyncmac/verify/reference_channel.h
//
// A deliberately naive re-derivation of the Section-II channel semantics,
// used as a differential oracle against the optimized channel::Ledger.
// Success of a transmission is decided by scanning every other
// transmission for overlap; slot feedback by scanning every transmission.
// There is no windowing, no window seek, no pruning and no lazy
// finalization — exactly the machinery the Ledger optimizes, so any
// disagreement between the two convicts the optimization (or the model).
// Correctness of this class is meant to be evident by inspection.
#pragma once

#include <cstddef>
#include <vector>

#include "channel/transmission.h"
#include "sim/engine.h"
#include "trace/invariants.h"
#include "trace/recorder.h"
#include "util/types.h"

namespace asyncmac::verify {

class ReferenceChannel {
 public:
  /// Register a transmission interval. Order does not matter (the
  /// reference never assumes sortedness — one less shared assumption
  /// with the Ledger). The stored `admission`/`decided`/`successful`
  /// flags of `t` are ignored: the reference re-derives everything.
  void add(const channel::Transmission& t) {
    txs_.push_back(t);
    cached_ = false;
    admissions_valid_ = false;
  }

  /// Run the channel k-restrained (arXiv 1808.02216): at most k
  /// transmissions admitted on air at once; excess ones are jammed
  /// (spec.jam) or rejected outright. k == 0 means unrestrained.
  void set_restrained(channel::RestrainedSpec spec) {
    restrained_ = spec;
    cached_ = false;
    admissions_valid_ = false;
  }
  const channel::RestrainedSpec& restrained() const noexcept {
    return restrained_;
  }

  /// Admission verdict for transmission i, re-derived naively: replay
  /// all adds in (begin, station) order — the engines' event order —
  /// counting, for each, the earlier non-rejected transmissions still on
  /// air at its begin. O(T^2), no heap, no laziness.
  channel::Admission admission(std::size_t i) const;

  /// A transmission is successful iff it was admitted and no other
  /// non-rejected transmission overlaps it (Section II; rejected entries
  /// never reached the medium). O(T) scan over everything.
  bool successful(std::size_t i) const;

  /// Success verdict for the transmission occupying [begin, end) of
  /// `station`; the (station, begin, end) triple is unique by the
  /// engine's one-slot-at-a-time guarantee. O(T).
  bool successful(StationId station, Tick begin, Tick end) const;

  /// Exact feedback for a slot [s, t): ack iff a successful transmission
  /// ends in (s, t], else busy iff any transmission overlaps [s, t),
  /// else silence. O(T^2) unless cache_success() was called first.
  Feedback feedback(Tick s, Tick t) const;

  /// Precompute all success flags (O(T^2) once), making subsequent
  /// feedback() calls O(T). Call after the last add().
  void cache_success();

  const std::vector<channel::Transmission>& transmissions() const {
    return txs_;
  }

 private:
  void ensure_admissions() const;

  std::vector<channel::Transmission> txs_;
  channel::RestrainedSpec restrained_;
  std::vector<bool> success_cache_;  ///< valid when cached_
  bool cached_ = false;
  /// Admission verdict per transmission (insertion-indexed), valid when
  /// admissions_valid_. Derived lazily; all kOk when unrestrained.
  mutable std::vector<std::uint8_t> admission_;
  mutable bool admissions_valid_ = false;
};

/// Differential oracle over a recorded trace: rebuild the transmission
/// set, then require three-way agreement on every checkable slot between
/// (a) the feedback the engine recorded, (b) a fresh optimized Ledger
/// replay and (c) the naive reference — convicting either the live
/// engine/ledger interaction or the Ledger's windowed feedback scan.
/// When the run used a k-restrained channel, pass its spec; both replays
/// then also cross-check per-transmission admission verdicts.
trace::CheckResult check_channel_oracle(
    const std::vector<trace::SlotRecord>& slots,
    channel::RestrainedSpec restrained = {});

/// Cross-check the engine's own ledger — live window plus the entries
/// prune_before() archived into full_history() — against the reference:
/// every decided transmission's success flag must match the naive
/// verdict, and archiving must have lost nothing (history + window
/// account for every registered transmission). Requires the engine to
/// have been built with keep_channel_history (build_engine does).
trace::CheckResult check_ledger_history(const sim::Engine& engine);

}  // namespace asyncmac::verify
