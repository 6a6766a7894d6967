// asyncmac/channel/ledger.h
//
// The transmission ledger is the heart of the channel model: it records
// every transmission interval and answers, exactly, the two questions the
// paper's feedback model poses at the end of each station slot [s, t):
//
//   ack     — did a *successful* transmission end at a time e in (s, t] ?
//   busy    — otherwise, did any transmission overlap [s, t) ?
//   silence — otherwise.
//
// (Every instant of a station's timeline belongs to exactly one of its
// slots because end times are charged to the slot via the half-open rule
// e in (s, t].)
//
// A transmission T = [a, b) is successful iff no other transmission
// overlaps it (Section II). Success is decidable at time b: any
// transmission starting at or after b cannot overlap a past half-open
// interval. The ledger therefore finalizes transmissions lazily once the
// caller's clock passes their end.
//
// Contract with the engine: transmissions are added in non-decreasing
// order of begin time, and feedback(s, t) is only queried when every
// transmission with begin < t has already been added. The simulation
// engine meets this by processing slot boundaries in time order
// (a transmission is registered at its slot's start event).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "channel/transmission.h"
#include "snapshot/fwd.h"
#include "util/check.h"
#include "util/types.h"

namespace asyncmac::channel {

/// Cumulative channel statistics (survive pruning).
struct LedgerStats {
  std::uint64_t transmissions = 0;        ///< total transmissions registered
  std::uint64_t successful = 0;           ///< finalized successful
  std::uint64_t collided = 0;             ///< finalized unsuccessful
  std::uint64_t control_transmissions = 0;///< control ("empty signal") slots
  std::uint64_t successful_packets = 0;   ///< successful non-control
  Tick successful_packet_time = 0;  ///< total duration of successful
                                    ///< packet transmissions; the complement
                                    ///< is the paper's "wasted time" (Def. 2)
  Tick successful_control_time = 0;
  // Restrained channel (always 0 when k == 0). Rejected transmissions are
  // counted in `collided` too — they are decided-unsuccessful at add() —
  // so successful + collided still equals the decided count.
  std::uint64_t rejected = 0;  ///< suppressed over-capacity transmissions
  std::uint64_t jammed = 0;    ///< over-capacity transmissions sent anyway
};

class Ledger {
 public:
  /// When keep_history is true every finalized transmission is retained in
  /// full_history() for trace rendering; otherwise finalized transmissions
  /// are pruned once out of range. `restrained` selects the k-restrained
  /// channel (channel/transmission.h); the default is unrestrained.
  explicit Ledger(bool keep_history = false, RestrainedSpec restrained = {})
      : restrained_(restrained), keep_history_(keep_history) {}
  ~Ledger() { flush_telemetry(); }

  Ledger(const Ledger&) = delete;
  Ledger& operator=(const Ledger&) = delete;

  /// Register a transmission occupying [t.begin, t.end). Begins must be
  /// non-decreasing across calls and durations strictly positive.
  /// Precondition (engine-guaranteed): one station's transmissions never
  /// overlap each other — a station occupies one slot at a time — so a
  /// (station, begin, end) triple identifies a transmission uniquely.
  /// On a restrained channel the admission verdict is fixed here: the
  /// on-air count at t.begin (non-rejected entries with end > t.begin)
  /// decides kOk vs kJammed/kRejected. Rejected transmissions are decided
  /// unsuccessful immediately and never touch the medium — overlap scans
  /// and feedback classification skip them.
  void add(Transmission t);

  /// Exact feedback for a slot [s, t). Uniform for transmitters and
  /// listeners: a transmitter's own (whole-slot) transmission makes the
  /// rule yield ack exactly when that transmission succeeded and busy
  /// when it collided. Requires t <= the latest safe query time (all
  /// transmissions beginning before t already added). Cost is
  /// O(log d + neighborhood), not O(W): the begin-sorted window is seeked
  /// from its tail (channel/window_seek.h) to the first entry that can
  /// reach the slot, d entries back — a handful for the engine's
  /// near-"now" queries, at most 2*ceil(log2 W) + 1 probes anywhere. Two
  /// O(1) silence fast paths skip the seek entirely: an empty window, and
  /// a slot starting at or after latest_end() (every registered interval
  /// is already over, so nothing can overlap [s, t) or ack-end inside it).
  /// Defined inline so the engines' per-event loops (scalar Engine and the
  /// CohortEngine lane loop, which calls it once per lane per event)
  /// resolve the fast paths without a cross-TU call; only the
  /// neighborhood scan lives out of line.
  Feedback feedback(Tick s, Tick t) {
    AM_CHECK(s < t);
    ++pending_queries_;
    // O(1) silence fast paths. An empty window trivially yields silence.
    // When s >= latest_end_ every registered interval has end <= s, so
    // none overlaps [s, t) or ends inside (s, t] — but undecided entries
    // must still be finalized so LedgerStats stay current for adaptive
    // adversaries reading channel_stats() mid-run.
    if (head_ == window_.size()) {
      ++pending_fast_silence_;
      return Feedback::kSilence;
    }
    if (s >= latest_end_) {
      ++pending_fast_silence_;
      if (finalized_ < window_.size()) finalize_until(t);
      return Feedback::kSilence;
    }
    // Repeat-query memo: stations whose slots share boundaries (all of
    // them under a synchronous policy) ask about the same [s, t) back to
    // back, and with no add/prune in between the window contents, the
    // decided flags relevant to [s, t) (feedback_slow finalizes through t
    // on the first query) and hence the answer AND the scan length are
    // all unchanged — so replay the recorded result and charge exactly
    // the telemetry the real scan would have. A pure cache: cold-memo
    // (e.g. freshly resumed) and warm-memo runs produce identical
    // feedback, stats and counters, so it is deliberately not serialized.
    if (memo_valid_ && s == memo_s_ && t == memo_t_) {
      pending_scanned_ += memo_scanned_;
      ++pending_memo_hits_;
      return memo_fb_;
    }
    return feedback_slow(s, t);
  }

  /// Push batched telemetry deltas into the global atomic instruments.
  /// feedback()/add() accumulate plain-integer counters on the hot path;
  /// prune_before(), the destructor and the engine's run() exit flush
  /// them, so instrument readings lag a live run by at most one prune
  /// interval.
  void flush_telemetry();

  /// Finalize the success flag of all transmissions with end <= now.
  void finalize_until(Tick now);

  /// Drop finalized transmissions with end <= horizon; the engine passes
  /// the minimum current-slot start over all stations, so no future
  /// feedback query can reference a pruned interval.
  void prune_before(Tick horizon);

  /// Was the most recently finalized transmission of `station` ending
  /// exactly at time `end` successful? Used by the engine to decide packet
  /// delivery for a transmit slot that just ended.
  bool transmission_successful(StationId station, Tick end) const;

  const LedgerStats& stats() const noexcept { return stats_; }

  /// The restrained-channel configuration this ledger was built with.
  const RestrainedSpec& restrained() const noexcept { return restrained_; }

  /// Live window (unpruned), ordered by begin. Valid until the next add,
  /// prune_before or load_state.
  std::span<const Transmission> window() const noexcept {
    return {window_.data() + head_, window_.size() - head_};
  }

  /// All finalized transmissions ever (empty unless keep_history).
  const std::vector<Transmission>& full_history() const noexcept {
    return history_;
  }

  /// Largest end time among registered transmissions (0 when none yet).
  Tick latest_end() const noexcept { return latest_end_; }

  /// Largest duration among registered transmissions (0 when none yet).
  /// Feedback queries only scan entries with begin > s - max_duration();
  /// differential tests target slots straddling exactly that boundary.
  Tick max_duration() const noexcept { return max_duration_; }

  /// Checkpoint/resume (docs/CHECKPOINT.md): serialize/restore the full
  /// mutable state — live window, finalized cursor, archived history,
  /// cumulative stats and the batched telemetry deltas. load_state
  /// requires the ledger to have been constructed with the same
  /// keep_history flag (SnapshotError::kMismatch otherwise).
  void save_state(snapshot::Writer& w) const;
  void load_state(snapshot::Reader& r);

 private:
  /// The cohort's lanes are Ledgers; LaneLedger mirrors their gate state
  /// and folds its batched telemetry into the pending counters below.
  friend class LaneLedger;

  /// Fast-path telemetry counted outside this Ledger (LaneLedger's
  /// batched gates), not yet folded into the pending counters.
  struct FastPathCounts {
    std::uint64_t queries = 0;
    std::uint64_t fast_silence = 0;
    std::uint64_t memo_hits = 0;
    std::uint64_t scanned = 0;
  };
  /// save_state, writing the pending counters with `extra` added — the
  /// bytes this Ledger would write after folding `extra` in.
  void save_state(snapshot::Writer& w, const FastPathCounts& extra) const;

  /// The seek-and-scan tail of feedback(): neighborhood classification for
  /// slots the inline fast paths cannot decide.
  Feedback feedback_slow(Tick s, Tick t);
  bool overlaps_other(const Transmission& t) const;
  /// Restrained admission at add() time: pops stale ends lazily, takes
  /// the verdict for the on-air count at `begin` (channel/semantics.h)
  /// and records `end` when the new transmission reaches the medium.
  Admission admit(Tick begin, Tick end);

  /// Contiguous window: live entries occupy window_[head_, size()).
  /// prune_before advances head_ and compacts once the dead prefix
  /// dominates (window_compaction_due), so the buffer is reused in place.
  std::vector<Transmission> window_;
  std::size_t head_ = 0;
  std::size_t finalized_ = 0;  ///< absolute: [head_, finalized_) decided
  RestrainedSpec restrained_;
  /// Min-heap of non-rejected transmission ends (restrained mode only).
  /// Ends <= the current add's begin are popped lazily; the remainder is
  /// the on-air count. Not serialized: load_state rebuilds it from the
  /// non-rejected window entries, which is observably equivalent (pruned
  /// ends lie at or below the horizon, below every future begin).
  std::vector<Tick> live_ends_;

  // Repeat-query memo (see feedback()). Valid only while the window is
  // untouched: add() and prune_before() invalidate, load_state() starts
  // cold. Not serialized — replay is observably identical to re-scanning.
  bool memo_valid_ = false;
  Tick memo_s_ = 0;
  Tick memo_t_ = 0;
  Feedback memo_fb_ = Feedback::kSilence;
  std::uint64_t memo_scanned_ = 0;
  std::vector<Transmission> history_;
  LedgerStats stats_;
  Tick last_begin_ = 0;
  Tick latest_end_ = 0;
  Tick max_duration_ = 0;
  bool keep_history_;

  // Batched telemetry deltas (plain integers on the hot path; see
  // flush_telemetry).
  std::uint64_t pending_adds_ = 0;
  std::uint64_t pending_queries_ = 0;
  std::uint64_t pending_scanned_ = 0;
  std::uint64_t pending_fast_silence_ = 0;
  // Memo effectiveness: a hit replays the memo, a miss runs the seek-and-
  // scan tail. Fast-silence queries are neither (the memo never sees them).
  std::uint64_t pending_memo_hits_ = 0;
  std::uint64_t pending_memo_misses_ = 0;
  std::uint64_t pending_prunes_ = 0;
  std::uint64_t pending_pruned_entries_ = 0;
  std::size_t window_peak_local_ = 0;
};

}  // namespace asyncmac::channel
