// asyncmac/channel/lane_ledger.h
//
// Lane-major SoA substrate for sim::CohortEngine's lockstep fast path: K
// independent channel ledgers ("lanes") whose hot state — window sizes,
// latest-end watermarks, repeat-query memos, pending telemetry deltas —
// lives in contiguous per-lane arrays, and whose transmission windows are
// stored field-split (begins, ends, decided flags, ... each in its own
// flat array per lane) instead of as arrays of Transmission structs.
//
// Why it exists: a lockstep cohort asks the *same* feedback question
// [s, t) of every lane at every slot-end event. With K scalar Ledger
// objects that is K pointer chases through scattered heap allocations per
// event; here feedback_all() classifies all K lanes in one pass over flat
// arrays (empty window / fast silence / memo replay / slow scan), written
// as plain auto-vectorization-friendly loops — no intrinsics, and an
// optional -march=native CI leg exercises the wide codegen.
//
// Byte-identity contract (the same one sim/cohort_engine.h carries): each
// lane behaves observably exactly like a scalar channel::Ledger fed the
// same calls — identical feedback, identical LedgerStats at every
// observation point, identical telemetry deltas — and save_state(lane)
// writes the exact byte layout of Ledger::save_state, so a retiring or
// detaching lane materializes a scalar Ledger bit-for-bit. KEEP IN SYNC
// with channel/ledger.{h,cpp}: any change to the scalar feedback rules,
// memo invalidation, telemetry counters or serialization layout must land
// here too (and vice versa); tests/test_cohort.cpp pins the equivalence
// across the golden corpus.
#pragma once

#include <cstdint>
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
  ~LaneLedger();  ///< flushes every lane's pending telemetry

  LaneLedger(const LaneLedger&) = delete;
  LaneLedger& operator=(const LaneLedger&) = delete;

  std::uint32_t lanes() const noexcept { return K_; }

  /// Ledger::add for one lane: begins non-decreasing per lane, positive
  /// duration, memo invalidation under the scalar rule.
  void add(std::uint32_t lane, const Transmission& t);

  /// Feedback for slot [s, t) for every lane in `active`, written to
  /// fb[lane]. Classification (the common case: empty window, fast
  /// silence, memo replay) is one branch-light pass over the contiguous
  /// per-lane summary arrays; only lanes classified "slow" fall through
  /// to the scalar seek-and-scan tail. Returns true iff the cohort-wide
  /// all-quiet gate fired — every lane took the O(1) silence fast path,
  /// so the caller knows fb is kSilence across the board without reading
  /// it back (CohortEngine keys its idle slot fast path off this).
  bool feedback_all(Tick s, Tick t, const std::vector<std::uint32_t>& active,
                    Feedback* fb);

  /// The pass-0 all-quiet gate condition of feedback_all, exposed inline
  /// (no call, no writes) so CohortEngine can fuse it with its own
  /// idle-station gate: true iff a slot beginning at `s` takes the O(1)
  /// silence fast path in every lane. Holding implies feedback_all would
  /// write kSilence for all lanes and touch only the counters that
  /// apply_all_quiet() bumps.
  bool all_quiet(Tick s) const noexcept {
    std::uint32_t quiet = 1;
    for (std::uint32_t k = 0; k < K_; ++k)
      quiet &= static_cast<std::uint32_t>(live_count_[k] == 0) |
               (static_cast<std::uint32_t>(s >= latest_end_[k]) &
                static_cast<std::uint32_t>(fin_pending_[k] == 0));
    return quiet != 0;
  }

  /// The batched-counter increments of `count` all-quiet classifications
  /// — exactly what feedback_all's pass 0 records per event. Call in
  /// place of feedback_all, once per event (or once per batched run of
  /// events, all of which must satisfy all_quiet()).
  void apply_all_quiet(std::uint64_t count = 1) noexcept {
    for (std::uint32_t k = 0; k < K_; ++k) pend_queries_[k] += count;
    for (std::uint32_t k = 0; k < K_; ++k) pend_fast_silence_[k] += count;
  }

  /// The pass-0b memo-replay gate condition of feedback_all, inline:
  /// true iff every lane would classify slot [s, t) exactly as a memo
  /// replay (live window, s below the latest end, memo match). Holding
  /// implies feedback_all would write memo_feedback(k) for each lane and
  /// touch only the counters that apply_all_memo() bumps.
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

  /// Lane k's memoized feedback byte (valid only while all_memo() /
  /// memo_valid holds — callers pair this with an all_memo() check).
  std::uint8_t memo_feedback(std::uint32_t k) const noexcept {
    return memo_fb_[k];
  }

  /// The batched-counter increments of `count` memo-replay
  /// classifications — exactly what feedback_all's pass 0b records per
  /// event. Call in place of feedback_all, once per batched run of
  /// events, all of which must satisfy all_memo().
  void apply_all_memo(std::uint64_t count) noexcept {
    for (std::uint32_t k = 0; k < K_; ++k) pend_queries_[k] += count;
    for (std::uint32_t k = 0; k < K_; ++k) pend_memo_hits_[k] += count;
    for (std::uint32_t k = 0; k < K_; ++k)
      pend_scanned_[k] += count * memo_scanned_[k];
  }

  /// Ledger::prune_before for one lane (finalize, memo invalidation,
  /// decided-prefix pop, history archiving, telemetry flush).
  void prune_before(std::uint32_t lane, Tick horizon);

  /// Cumulative per-lane stats, exactly the scalar Ledger's at the same
  /// point in the call sequence.
  const LedgerStats& stats(std::uint32_t lane) const { return stats_[lane]; }

  /// The restrained-channel spec shared by every lane.
  const RestrainedSpec& restrained() const noexcept { return restrained_; }

  /// Ledger::transmission_successful for one lane: was lane `lane`'s most
  /// recent transmission of `station` ending exactly at `end` successful?
  /// The cohort engine consults this on restrained channels before
  /// delivering — an ack can be another station's under reject mode.
  bool transmission_successful(std::uint32_t lane, StationId station,
                               Tick end) const;

  /// Push one lane's batched telemetry deltas into the global atomic
  /// instruments (the same channel.* names the scalar Ledger uses).
  void flush_telemetry(std::uint32_t lane);

  /// Ledger::save_state's exact byte layout, written from lane state.
  void save_state(std::uint32_t lane, snapshot::Writer& w) const;

 private:
  /// One lane's transmission window, field-split. Live entries occupy
  /// [head, size) of every array; prune pops by advancing head and
  /// compacts the arrays once the dead prefix dominates.
  struct Window {
    std::vector<Tick> begin;
    std::vector<Tick> end;
    std::vector<StationId> station;
    std::vector<PacketSeq> packet;
    std::vector<std::uint8_t> is_control;
    std::vector<std::uint8_t> successful;
    std::vector<std::uint8_t> decided;
    std::vector<std::uint8_t> admission;
    std::size_t head = 0;
    std::size_t finalized = 0;  ///< absolute: [head, finalized) decided

    std::size_t size() const noexcept { return begin.size(); }
    std::size_t live() const noexcept { return begin.size() - head; }
    void push(const Transmission& t);
    void compact();
  };

  Feedback feedback_slow(std::uint32_t lane, Tick s, Tick t);
  void finalize_until(std::uint32_t lane, Tick now);
  bool overlaps_other(const Window& w, Tick max_dur, std::size_t i) const;
  /// The scalar Ledger::admit, per lane: lazy pops, on-air count, verdict.
  Admission admit(std::uint32_t lane, Tick begin, Tick end);

  std::uint32_t K_;
  bool keep_history_;
  RestrainedSpec restrained_;
  /// Per-lane min-heaps of non-rejected transmission ends (restrained
  /// mode only; empty vectors otherwise). Mirrors Ledger::live_ends_.
  std::vector<std::vector<Tick>> live_ends_;
  std::vector<Window> win_;
  std::vector<std::vector<Transmission>> history_;
  std::vector<LedgerStats> stats_;

  // ---- cross-lane summary arrays, indexed by lane (the hot state the
  // feedback_all classification pass reads/writes contiguously) ----
  std::vector<std::uint32_t> live_count_;  ///< mirror of win_[k].live()
  std::vector<std::uint8_t> fin_pending_;  ///< 1 iff finalized < size
  std::vector<Tick> latest_end_;
  std::vector<Tick> last_begin_;
  std::vector<Tick> max_duration_;
  std::vector<std::uint8_t> memo_valid_;
  std::vector<Tick> memo_s_;
  std::vector<Tick> memo_t_;
  std::vector<std::uint8_t> memo_fb_;
  std::vector<std::uint64_t> memo_scanned_;

  // ---- per-lane batched telemetry deltas (contiguous; same fields and
  // flush discipline as the scalar Ledger's pending_* members) ----
  std::vector<std::uint64_t> pend_adds_;
  std::vector<std::uint64_t> pend_queries_;
  std::vector<std::uint64_t> pend_scanned_;
  std::vector<std::uint64_t> pend_fast_silence_;
  std::vector<std::uint64_t> pend_memo_hits_;
  std::vector<std::uint64_t> pend_memo_misses_;
  std::vector<std::uint64_t> pend_prunes_;
  std::vector<std::uint64_t> pend_pruned_entries_;
  std::vector<std::uint64_t> window_peak_;

  // feedback_all scratch (sized K at construction, reused every event):
  // per-lane classification code and the packed list of rare lanes.
  std::vector<std::uint8_t> code_;
  std::vector<std::uint32_t> rare_;
};

}  // namespace asyncmac::channel
