// asyncmac/live/channel.h
//
// Arrival-driven channel model for the live daemon. The simulation
// ledger (channel/ledger.h) requires every transmission's end time at
// add() time — the engine knows it, because the slot policy fixes the
// slot length at the slot's begin event. A live daemon does not: a
// station's transmission ends when its SlotEnd datagram *arrives*, so
// intervals must stay open until then.
//
// LiveChannel therefore keeps two kinds of entries in its begin-sorted
// window:
//   * open     — begin known, end unknown (stored as kTickInfinity);
//   * closed   — end fixed by the SlotEnd arrival, success decided.
//
// It answers the exact same questions as the ledger with the same rules,
// which both take from channel/semantics.h: the restrained admission
// verdict, the admission and outcome tallies, and the slot scan
//   ack     — a successful transmission ended at e in (s, t];
//   busy    — otherwise, some transmission overlaps [s, t);
//   silence — otherwise.
// What stays here is the storage and the searches over it, the same
// contiguous window channel::Ledger keeps: a flat begin-sorted buffer
// whose live entries occupy [head, size), compacted by
// window_compaction_due (channel/window_seek.h). Each station's open
// entry is indexed, so has_open and the entry close_tx closes are O(1)
// lookups. The feedback scan, the overlap search at close_tx and the
// on-air census at begin_tx all start at the earlier of two points:
//   * the tail seek (seek_begin_after) to the first entry beginning
//     after key - max_closed_duration — every closed entry before it
//     ended at or before the key and cannot reach the query;
//   * the oldest open entry, whose end = +inf reaches every later query.
// max_closed_duration is taken from realized ends (the SlotEnd arrival),
// not from R: over UDP a slot can last longer than R units. The oldest
// open entry is tracked incrementally and only re-found when it closes,
// by walking forward to the next open entry. Each query therefore costs
// O(log d + neighborhood), d = its distance from the tail, not O(W).
// An open transmission can never ack (its end lies in the future) but
// does make overlapping slots busy: treating its unknown end as +inf is
// exact, because the daemon closes every transmission whose end is <= t
// before answering a feedback query at t (wave phase A, live/daemon.h).
//
// Stats parity: the shared rules bump LedgerStats at the same logical
// points as the ledger — transmissions/control_transmissions at
// registration, success/collision tallies when the interval's end
// passes — so a virtual-clock live run reports byte-identical channel
// stats to sim::Engine (pinned by tests/test_live_channel and the
// differential).
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

#include "channel/ledger.h"
#include "channel/transmission.h"
#include "util/types.h"

namespace asyncmac::live {

class LiveChannel {
 public:
  /// `restrained` selects the k-restrained channel; admission verdicts
  /// are decided at begin_tx (the on-air census needs no end times: open
  /// entries count with end = +inf, exactly like the ledger's heap of
  /// not-yet-expired ends). Default is unrestrained.
  explicit LiveChannel(channel::RestrainedSpec restrained = {})
      : restrained_(restrained) {}

  const channel::RestrainedSpec& restrained() const noexcept {
    return restrained_;
  }

  /// Register an open transmission starting at `begin`. Begins must be
  /// non-decreasing across calls (the daemon processes waves in arrival
  /// order); a station may have at most one open transmission. On a
  /// restrained channel the admission verdict is fixed here; a rejected
  /// transmission is decided unsuccessful immediately (it still awaits
  /// its SlotEnd to fix the interval's end, but never touches the
  /// medium: overlap scans and feedback skip it).
  void begin_tx(StationId station, Tick begin, bool is_control,
                PacketSeq packet);

  /// Close `station`'s open transmission at `end` (its SlotEnd arrival),
  /// decide success against every other known interval and update stats.
  /// Returns whether the transmission was successful. Requires end >
  /// begin and that every transmission with begin < end has already been
  /// registered (the daemon's wave ordering guarantees this).
  bool close_tx(StationId station, Tick end);

  /// Exact feedback for slot [s, t). Requires every transmission ending
  /// at or before t to be closed already (phase A before phase B).
  Feedback feedback(Tick s, Tick t) const;

  /// Success verdict of `station`'s closed transmission ending at `end`
  /// (the daemon's ack-ownership check under a reject-mode restrained
  /// channel — mirrors Ledger::transmission_successful).
  bool transmission_successful(StationId station, Tick end) const;

  /// Drop closed transmissions with end <= horizon; the daemon passes the
  /// minimum current-slot begin over all stations, so no future feedback
  /// query or success decision can reference a dropped interval (the same
  /// argument as Ledger::prune_before). Open entries are never dropped.
  void prune_before(Tick horizon);

  bool has_open(StationId station) const noexcept {
    return station < open_at_.size() && open_at_[station] != kNone;
  }

  const channel::LedgerStats& stats() const noexcept { return stats_; }
  std::size_t window_size() const noexcept { return window_.size() - head_; }

 private:
  static constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

  /// First index any query keyed at `key` (a slot start, or the begin of
  /// an interval being checked) must visit: the tail seek past closed
  /// entries that ended at or before `key`, or the oldest open entry if
  /// that lies earlier.
  std::size_t scan_start(Tick key) const;

  /// Contiguous window: live entries occupy window_[head_, size()),
  /// begin-sorted; an open entry has end = +inf. Indices below are
  /// absolute into window_ and shift down when it compacts.
  std::vector<channel::Transmission> window_;
  std::size_t head_ = 0;
  /// open_at_[station]: index of the station's open entry, or kNone.
  std::vector<std::size_t> open_at_;
  std::size_t oldest_open_ = kNone;  ///< smallest open index, kNone if none
  /// Longest realized duration of any closed entry (never shrinks).
  Tick max_closed_duration_ = 0;
  channel::RestrainedSpec restrained_;
  channel::LedgerStats stats_;
  Tick last_begin_ = 0;
};

}  // namespace asyncmac::live
