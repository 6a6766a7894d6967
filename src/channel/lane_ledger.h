// asyncmac/channel/lane_ledger.h
//
// The channel substrate of sim::CohortEngine's lockstep fast path: K
// independent lanes, each a real channel::Ledger, plus a cross-lane gate
// index that the cohort's vectorized gates read.
//
// Why the index exists: a lockstep cohort asks the *same* feedback
// question [s, t) of every lane at every slot-end event, and on arrow
// workloads almost every answer is an O(1) fast silence or a memo
// replay. The index keeps, per lane and in contiguous arrays, exactly the
// Ledger state those two outcomes depend on (live count, latest end,
// finalize-pending flag, the repeat-query memo), so feedback_all()
// classifies all K lanes in one branch-light pass with no calls — plain
// loops the auto-vectorizer may lift to SIMD — and only the rare lanes
// (finalize catch-up, memo miss) call Ledger::feedback.
//
// Byte-identity by construction: every call that changes a lane's channel
// (add, prune, a rare-lane feedback) goes to that lane's Ledger, which
// then refreshes the lane's index entry. The fast outcomes leave the
// Ledger untouched and count their telemetry in per-lane batched
// counters, which are folded into the Ledger's own pending counters
// before every prune, flush and destruction, and added to them in the
// bytes save_state writes. So stats(),
// transmission_successful() and save_state() are the Ledger's own, and a
// lane reports exactly the channel.* telemetry its scalar twin would.
// tests/test_lane_ledger.cpp checks this call by call.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "channel/ledger.h"
#include "channel/transmission.h"
#include "snapshot/fwd.h"
#include "util/types.h"

namespace asyncmac::channel {

class LaneLedger {
 public:
  /// `lanes` ledgers, all with the same keep_history flag and
  /// restrained-channel spec (cohort eligibility requires both shared
  /// across lanes).
  LaneLedger(std::uint32_t lanes, bool keep_history,
             RestrainedSpec restrained = {});
  ~LaneLedger();  ///< folds every lane's batched counters into its Ledger

  LaneLedger(const LaneLedger&) = delete;
  LaneLedger& operator=(const LaneLedger&) = delete;

  /// Ledger::add for one lane.
  void add(std::uint32_t lane, const Transmission& t);

  /// Feedback for slot [s, t) for every lane in `active`, written to
  /// fb[lane]. Classification (the common case: empty window, fast
  /// silence, memo replay) is one branch-light pass over the gate index;
  /// only lanes classified "rare" call Ledger::feedback. Returns true iff
  /// the cohort-wide all-quiet gate fired — every lane took the O(1)
  /// silence fast path, so the caller knows fb is kSilence across the
  /// board without reading it back (CohortEngine keys its idle slot fast
  /// path off this).
  bool feedback_all(Tick s, Tick t, const std::vector<std::uint32_t>& active,
                    Feedback* fb);

  /// The all-quiet gate of feedback_all, inline (no call, no writes) so
  /// CohortEngine can fuse it with its own idle-station gate: true iff a
  /// slot beginning at `s` takes Ledger::feedback's O(1) silence fast path
  /// in every lane, with no finalization pending. Holding implies
  /// feedback_all would write kSilence for all lanes and touch only the
  /// counters that apply_all_quiet() bumps.
  bool all_quiet(Tick s) const noexcept {
    std::uint32_t quiet = 1;
    for (std::uint32_t k = 0; k < K_; ++k)
      quiet &= static_cast<std::uint32_t>(live_count_[k] == 0) |
               (static_cast<std::uint32_t>(s >= latest_end_[k]) &
                static_cast<std::uint32_t>(fin_pending_[k] == 0));
    return quiet != 0;
  }

  /// The batched-counter increments of `count` all-quiet queries. Call in
  /// place of feedback_all, once per event (or once per batched run of
  /// events, all of which must satisfy all_quiet()).
  void apply_all_quiet(std::uint64_t count = 1) noexcept {
    for (std::uint32_t k = 0; k < K_; ++k) pend_queries_[k] += count;
    for (std::uint32_t k = 0; k < K_; ++k) pend_fast_silence_[k] += count;
  }

  /// The memo-replay gate of feedback_all, inline: true iff every lane
  /// would answer slot [s, t) by replaying its memo (live window, s below
  /// the latest end, memo match). Holding implies feedback_all would
  /// write memo_feedback(k) for each lane and touch only the counters
  /// that apply_all_memo() bumps.
  bool all_memo(Tick s, Tick t) const noexcept {
    std::uint32_t memo = 1;
    for (std::uint32_t k = 0; k < K_; ++k)
      memo &= static_cast<std::uint32_t>(live_count_[k] != 0) &
              static_cast<std::uint32_t>(s < latest_end_[k]) &
              static_cast<std::uint32_t>(memo_valid_[k] != 0) &
              static_cast<std::uint32_t>(s == memo_s_[k]) &
              static_cast<std::uint32_t>(t == memo_t_[k]);
    return memo != 0;
  }

  /// Lane k's memoized feedback byte (valid only while all_memo() holds —
  /// callers pair this with an all_memo() check).
  std::uint8_t memo_feedback(std::uint32_t k) const noexcept {
    return memo_fb_[k];
  }

  /// The batched-counter increments of `count` memo replays. Call in
  /// place of feedback_all, once per batched run of events, all of which
  /// must satisfy all_memo().
  void apply_all_memo(std::uint64_t count) noexcept {
    for (std::uint32_t k = 0; k < K_; ++k) pend_queries_[k] += count;
    for (std::uint32_t k = 0; k < K_; ++k) pend_memo_hits_[k] += count;
    for (std::uint32_t k = 0; k < K_; ++k)
      pend_scanned_[k] += count * memo_scanned_[k];
  }

  /// Ledger::prune_before for one lane.
  void prune_before(std::uint32_t lane, Tick horizon);

  /// Lane `lane`'s cumulative channel stats (its Ledger's).
  const LedgerStats& stats(std::uint32_t lane) const {
    return ledger_[lane]->stats();
  }

  /// Ledger::transmission_successful for one lane. The cohort engine
  /// consults this on restrained channels before delivering — an ack can
  /// be another station's under reject mode.
  bool transmission_successful(std::uint32_t lane, StationId station,
                               Tick end) const {
    return ledger_[lane]->transmission_successful(station, end);
  }

  /// Ledger::flush_telemetry for one lane, batched counters included.
  void flush_telemetry(std::uint32_t lane);

  /// Ledger::save_state for one lane, batched counters included (written
  /// as if folded; the counters themselves stay batched).
  void save_state(std::uint32_t lane, snapshot::Writer& w) const;

 private:
  /// Add lane k's batched counters to its Ledger's pending counters.
  void fold(std::uint32_t k) noexcept;
  /// Copy lane k's gate-relevant Ledger state into the index.
  void refresh(std::uint32_t k) noexcept;

  std::uint32_t K_;
  std::vector<std::unique_ptr<Ledger>> ledger_;

  // ---- gate index, indexed by lane (contiguous, read by the gates) ----
  std::vector<std::uint32_t> live_count_;  ///< live window entries
  std::vector<std::uint8_t> fin_pending_;  ///< 1 iff an entry is undecided
  std::vector<Tick> latest_end_;
  std::vector<std::uint8_t> memo_valid_;
  std::vector<Tick> memo_s_;
  std::vector<Tick> memo_t_;
  std::vector<std::uint8_t> memo_fb_;
  std::vector<std::uint64_t> memo_scanned_;

  // ---- batched counters of the fast outcomes (folded by fold()) ----
  std::vector<std::uint64_t> pend_queries_;
  std::vector<std::uint64_t> pend_fast_silence_;
  std::vector<std::uint64_t> pend_memo_hits_;
  std::vector<std::uint64_t> pend_scanned_;

  /// feedback_all scratch (sized K, reused every event): the packed list
  /// of rare lanes.
  std::vector<std::uint32_t> rare_;
};

}  // namespace asyncmac::channel
