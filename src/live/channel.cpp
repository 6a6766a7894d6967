#include "live/channel.h"

#include "channel/semantics.h"
#include "util/check.h"

namespace asyncmac::live {

using channel::intervals_overlap;
using channel::Transmission;

void LiveChannel::begin_tx(StationId station, Tick begin, bool is_control,
                           PacketSeq packet) {
  AM_CHECK_MSG(begin >= last_begin_, "transmission begins must not decrease");
  AM_CHECK_MSG(!has_open(station),
               "station " << station << " already has an open transmission");
  last_begin_ = begin;
  Transmission tx;
  tx.station = station;
  tx.begin = begin;
  tx.end = kTickInfinity;  // open: end fixed by the SlotEnd arrival
  tx.is_control = is_control;
  tx.packet = packet;
  channel::Admission verdict = channel::Admission::kOk;
  if (restrained_.enabled()) {
    // On-air census at `begin`: non-rejected entries still occupying the
    // medium. Open entries count unconditionally (end = +inf); pruned
    // entries ended at or below every live begin and cannot count.
    std::size_t on_air = 0;
    for (const Transmission& o : window_) {
      if (static_cast<channel::Admission>(o.admission) ==
          channel::Admission::kRejected)
        continue;
      if (o.end > begin) ++on_air;
    }
    verdict = channel::admission_verdict(on_air, restrained_);
  }
  // A rejected transmission is decided unsuccessful right here: it never
  // reaches the medium (it still awaits its SlotEnd to fix its end).
  channel::record_admission(tx, verdict, stats_);
  window_.push_back(tx);
  ++open_count_;
}

bool LiveChannel::close_tx(StationId station, Tick end) {
  // The open entry is near the back (it was registered at the station's
  // current slot begin); scan backwards. Openness is end == +inf, not
  // !decided: a rejected transmission is decided at begin_tx yet still
  // awaits its SlotEnd here.
  std::size_t self = window_.size();
  for (std::size_t i = window_.size(); i-- > 0;) {
    if (window_[i].station == station && window_[i].end == kTickInfinity) {
      self = i;
      break;
    }
  }
  AM_CHECK_MSG(self < window_.size(),
               "station " << station << " has no open transmission");
  Transmission& tx = window_[self];
  AM_CHECK_MSG(end > tx.begin, "transmission must have positive duration");
  tx.end = end;
  --open_count_;
  if (static_cast<channel::Admission>(tx.admission) ==
      channel::Admission::kRejected) {
    // Decided (and tallied) at begin_tx; only the interval end was open.
    return false;
  }
  // Success iff no other non-rejected interval overlaps [begin, end).
  // Open entries count with end = +inf; closed-and-pruned entries cannot
  // overlap (prune_before's horizon argument is below every live begin).
  bool successful = true;
  for (std::size_t i = 0; i < window_.size(); ++i) {
    if (i == self) continue;
    const Transmission& o = window_[i];
    if (static_cast<channel::Admission>(o.admission) ==
        channel::Admission::kRejected)
      continue;
    if (intervals_overlap(tx.begin, tx.end, o.begin, o.end)) {
      successful = false;
      break;
    }
  }
  channel::record_outcome(tx, successful, stats_);
  return successful;
}

Feedback LiveChannel::feedback(Tick s, Tick t) const {
  AM_CHECK(s < t);
  // The window is begin-sorted, so the scan may start at its front; open
  // entries (end = +inf) can be busy but never ack.
  return channel::scan_slot(window_.begin(), window_.end(), s, t).feedback;
}

bool LiveChannel::transmission_successful(StationId station, Tick end) const {
  for (std::size_t i = window_.size(); i-- > 0;) {
    if (window_[i].station == station && window_[i].end == end) {
      AM_CHECK(window_[i].decided);  // rejected entries decide at begin_tx
      return window_[i].successful;
    }
  }
  AM_CHECK_MSG(false, "no transmission of station " << station
                                                    << " ending at " << end);
  return false;
}

void LiveChannel::prune_before(Tick horizon) {
  while (!window_.empty() && window_.front().decided &&
         window_.front().end <= horizon) {
    window_.pop_front();
  }
}

bool LiveChannel::has_open(StationId station) const {
  if (open_count_ == 0) return false;
  for (std::size_t i = window_.size(); i-- > 0;) {
    if (window_[i].station == station && window_[i].end == kTickInfinity)
      return true;
  }
  return false;
}

}  // namespace asyncmac::live
