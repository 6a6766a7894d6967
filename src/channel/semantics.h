// asyncmac/channel/semantics.h
//
// The channel rules every production channel model applies, written
// once. channel::Ledger (the simulator's, and through it every lane of
// channel::LaneLedger) and live::LiveChannel (the live daemon's) keep
// their own storage — the same contiguous begin-sorted window, seeked
// from its tail (channel/window_seek.h) — their own on-air census and
// their own overlap search, and call these for the rules themselves:
//
//   * k-restrained admission (Hradovich–Klonowski–Kowalski, arXiv
//     1808.02216): the verdict from the on-air count at a transmission's
//     begin, and its effect on the transmission and on LedgerStats;
//   * a finalized outcome (successful iff nothing overlapped it, Section
//     II) and its LedgerStats tallies;
//   * slot feedback: [s, t) hears ack if a successful transmission ended
//     in (s, t], busy if any transmission overlaps it, silence otherwise.
//
// verify::ReferenceChannel stays independent on purpose: it is the
// brute-force oracle these rules are checked against.
#pragma once

#include <cstdint>

#include "channel/ledger.h"
#include "channel/transmission.h"
#include "util/check.h"
#include "util/types.h"

namespace asyncmac::channel {

/// Admission verdict for a transmission that finds `on_air` non-rejected
/// transmissions still occupying the medium at its begin. Only meaningful
/// on a restrained channel (spec.enabled()).
inline Admission admission_verdict(std::size_t on_air,
                                   const RestrainedSpec& spec) noexcept {
  if (on_air < spec.k) return Admission::kOk;
  return spec.jam ? Admission::kJammed : Admission::kRejected;
}

/// Register `tx` with its admission verdict: fixes tx.admission, counts
/// the transmission, and tallies a jam or a rejection. A rejected
/// transmission never reaches the medium, so it is decided unsuccessful
/// right here and counted as collided too: successful + collided keeps
/// equal to the number of decided transmissions.
inline void record_admission(Transmission& tx, Admission verdict,
                             LedgerStats& st) noexcept {
  tx.decided = false;
  tx.successful = false;
  tx.admission = static_cast<std::uint8_t>(verdict);
  ++st.transmissions;
  if (tx.is_control) ++st.control_transmissions;
  if (verdict == Admission::kJammed) {
    ++st.jammed;
  } else if (verdict == Admission::kRejected) {
    tx.decided = true;
    ++st.rejected;
    ++st.collided;
  }
}

/// Decide `tx` (a transmission that reached the medium) once its end has
/// passed: successful iff no other non-rejected transmission overlapped
/// it. Tallies the outcome and the successful packet/control time.
inline void record_outcome(Transmission& tx, bool successful,
                           LedgerStats& st) noexcept {
  tx.successful = successful;
  tx.decided = true;
  if (!successful) {
    ++st.collided;
    return;
  }
  ++st.successful;
  if (tx.is_control) {
    st.successful_control_time += tx.duration();
  } else {
    ++st.successful_packets;
    st.successful_packet_time += tx.duration();
  }
}

struct SlotScan {
  Feedback feedback = Feedback::kSilence;
  std::uint64_t scanned = 0;  ///< entries visited (begin < t)
};

/// Feedback for slot [s, t) from a begin-sorted range of transmissions.
/// `first` may be any entry at or before the first one that can reach the
/// slot; the scan stops at the first begin >= t, since such an entry
/// neither overlaps [s, t) nor ends inside (s, t]. Every entry ending in
/// (s, t] must already be decided. Rejected entries are visited (and
/// counted in `scanned`) but are neither ack nor busy. An entry whose end
/// is still unknown may carry end = kTickInfinity: it can be busy, never
/// ack.
template <class It>
SlotScan scan_slot(It first, It last, Tick s, Tick t) {
  bool any_overlap = false;
  std::uint64_t scanned = 0;
  for (; first != last; ++first) {
    const Transmission& tx = *first;
    if (tx.begin >= t) break;
    ++scanned;
    if (static_cast<Admission>(tx.admission) == Admission::kRejected)
      continue;
    if (tx.end > s && tx.end <= t) {
      AM_CHECK(tx.decided);
      if (tx.successful) return {Feedback::kAck, scanned};
    }
    if (!any_overlap) any_overlap = intervals_overlap(tx.begin, tx.end, s, t);
  }
  return {any_overlap ? Feedback::kBusy : Feedback::kSilence, scanned};
}

}  // namespace asyncmac::channel
