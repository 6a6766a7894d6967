#include "live/channel.h"

#include <algorithm>

#include "channel/semantics.h"
#include "channel/window_seek.h"
#include "util/check.h"

namespace asyncmac::live {

using channel::intervals_overlap;
using channel::Transmission;

namespace {

bool rejected(const Transmission& tx) {
  return static_cast<channel::Admission>(tx.admission) ==
         channel::Admission::kRejected;
}

}  // namespace

std::size_t LiveChannel::scan_start(Tick key) const {
  // A closed entry beginning at or before key - max_closed_duration_ ended
  // at or before key; only open entries (end = +inf) reach back further,
  // and none lies before oldest_open_.
  const std::size_t first = channel::seek_begin_after(
      head_, window_.size(), key - max_closed_duration_,
      [&](std::size_t i) { return window_[i].begin; });
  return std::min(first, oldest_open_);
}

void LiveChannel::begin_tx(StationId station, Tick begin, bool is_control,
                           PacketSeq packet) {
  AM_CHECK_MSG(begin >= last_begin_, "transmission begins must not decrease");
  AM_CHECK(station != kInvalidStation);
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
    // medium. Open entries count unconditionally (end = +inf); entries
    // before the scan start (or pruned) ended at or before `begin`.
    std::size_t on_air = 0;
    for (std::size_t i = scan_start(begin); i < window_.size(); ++i) {
      const Transmission& o = window_[i];
      if (!rejected(o) && o.end > begin) ++on_air;
    }
    verdict = channel::admission_verdict(on_air, restrained_);
  }
  // A rejected transmission is decided unsuccessful right here: it never
  // reaches the medium (it still awaits its SlotEnd to fix its end).
  channel::record_admission(tx, verdict, stats_);
  if (station >= open_at_.size()) open_at_.resize(station + 1, kNone);
  open_at_[station] = window_.size();
  if (oldest_open_ == kNone) oldest_open_ = window_.size();
  window_.push_back(tx);
}

bool LiveChannel::close_tx(StationId station, Tick end) {
  AM_CHECK_MSG(has_open(station),
               "station " << station << " has no open transmission");
  const std::size_t self = open_at_[station];
  Transmission& tx = window_[self];
  AM_CHECK_MSG(end > tx.begin, "transmission must have positive duration");
  tx.end = end;
  open_at_[station] = kNone;
  max_closed_duration_ = std::max(max_closed_duration_, tx.duration());
  if (self == oldest_open_) {
    // Every entry before self is closed, so the next open one is the
    // first entry after it with end = +inf (openness is not !decided: a
    // rejected transmission is decided at begin_tx yet still open).
    oldest_open_ = kNone;
    for (std::size_t i = self + 1; i < window_.size(); ++i) {
      if (window_[i].end == kTickInfinity) {
        oldest_open_ = i;
        break;
      }
    }
  }
  // Decided (and tallied) at begin_tx; only the interval end was open.
  if (rejected(tx)) return false;
  // Success iff no other non-rejected interval overlaps [begin, end).
  // Open entries count with end = +inf; entries before the scan start (or
  // pruned) ended at or before tx.begin; entries beginning at or after
  // tx.end cannot overlap.
  bool successful = true;
  for (std::size_t i = scan_start(tx.begin); i < window_.size(); ++i) {
    const Transmission& o = window_[i];
    if (o.begin >= tx.end) break;
    if (i == self || rejected(o)) continue;
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
  // Entries before the scan start ended at or before s: they neither
  // overlap [s, t) nor end inside (s, t]. Open entries (end = +inf) can
  // be busy but never ack.
  return channel::scan_slot(
             window_.begin() + static_cast<std::ptrdiff_t>(scan_start(s)),
             window_.end(), s, t)
      .feedback;
}

bool LiveChannel::transmission_successful(StationId station, Tick end) const {
  for (std::size_t i = window_.size(); i-- > head_;) {
    const Transmission& tx = window_[i];
    if (tx.station == station && tx.end == end) {
      AM_CHECK(tx.decided);  // rejected entries decide at begin_tx
      return tx.successful;
    }
    // Begin-sorted: an entry this old cannot be a closed one ending at
    // `end`, and neither can any earlier one.
    if (tx.begin + max_closed_duration_ < end) break;
  }
  AM_CHECK_MSG(false, "no transmission of station " << station
                                                    << " ending at " << end);
  return false;
}

void LiveChannel::prune_before(Tick horizon) {
  // Open entries have end = +inf, so head_ never passes oldest_open_.
  while (head_ < window_.size() && window_[head_].decided &&
         window_[head_].end <= horizon) {
    ++head_;
  }
  if (!channel::window_compaction_due(head_, window_.size())) return;
  window_.erase(window_.begin(),
                window_.begin() + static_cast<std::ptrdiff_t>(head_));
  for (std::size_t& at : open_at_)
    if (at != kNone) at -= head_;
  if (oldest_open_ != kNone) oldest_open_ -= head_;
  head_ = 0;
}

}  // namespace asyncmac::live
