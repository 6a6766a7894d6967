#include "channel/ledger.h"

#include <algorithm>
#include <functional>

#include "channel/semantics.h"
#include "channel/window_seek.h"
#include "snapshot/io.h"
#include "telemetry/registry.h"
#include "util/check.h"

namespace asyncmac::channel {

namespace {
// Telemetry instruments (write-only observability; see DESIGN.md §5 and
// docs/OBSERVABILITY.md). The hot paths (add, feedback) never touch these
// directly: deltas accumulate in plain Ledger members and reach the
// atomic instruments through flush_telemetry() on the cold path.
struct LedgerTelemetry {
  telemetry::Counter& adds =
      telemetry::Registry::global().counter("channel.transmissions");
  telemetry::Counter& feedback_queries =
      telemetry::Registry::global().counter("channel.feedback_queries");
  telemetry::Counter& feedback_scanned =
      telemetry::Registry::global().counter("channel.feedback_scanned");
  telemetry::Counter& feedback_fast_silence =
      telemetry::Registry::global().counter("channel.feedback_fast_silence");
  telemetry::Counter& memo_hits =
      telemetry::Registry::global().counter("channel.memo_hits");
  telemetry::Counter& memo_misses =
      telemetry::Registry::global().counter("channel.memo_misses");
  telemetry::Counter& prunes =
      telemetry::Registry::global().counter("channel.prunes");
  telemetry::Counter& pruned_entries =
      telemetry::Registry::global().counter("channel.pruned_entries");
  telemetry::MaxGauge& window_peak =
      telemetry::Registry::global().gauge("channel.window_peak");

  static LedgerTelemetry& get() {
    static LedgerTelemetry t;
    return t;
  }
};
}  // namespace

void Ledger::add(Transmission t) {
  AM_CHECK_MSG(t.begin >= last_begin_,
               "transmissions must be added in begin order: " << t.begin
                                                              << " < "
                                                              << last_begin_);
  AM_CHECK(t.end > t.begin);
  AM_CHECK(t.station != kInvalidStation);
  record_admission(
      t, restrained_.enabled() ? admit(t.begin, t.end) : Admission::kOk,
      stats_);
  last_begin_ = t.begin;
  latest_end_ = std::max(latest_end_, t.end);
  const Tick prev_max_duration = max_duration_;
  max_duration_ = std::max(max_duration_, t.duration());
  window_.push_back(t);
  // The memo survives an add that provably cannot change a replay of its
  // query: the feedback scan only reaches entries with begin < t (so an
  // entry beginning at or after memo_t_ is never scanned — the common
  // case, since stations at one boundary query [s, t) and then commit
  // their next slot beginning at t), and the scan's seek point depends on
  // max_duration_, so a new global maximum shifts the scanned count.
  if (t.begin < memo_t_ || max_duration_ != prev_max_duration)
    memo_valid_ = false;
  ++pending_adds_;
  const std::size_t live = window_.size() - head_;
  if (live > window_peak_local_) window_peak_local_ = live;
}

Admission Ledger::admit(Tick begin, Tick end) {
  // Lazily drop ends at or before the new begin (half-open intervals:
  // a transmission ending exactly at `begin` is off the air already).
  while (!live_ends_.empty() && live_ends_.front() <= begin) {
    std::pop_heap(live_ends_.begin(), live_ends_.end(), std::greater<Tick>());
    live_ends_.pop_back();
  }
  const Admission verdict = admission_verdict(live_ends_.size(), restrained_);
  if (verdict != Admission::kRejected) {
    // Admitted or jammed: either way the transmission occupies the
    // medium and counts toward the on-air total seen by later adds.
    live_ends_.push_back(end);
    std::push_heap(live_ends_.begin(), live_ends_.end(), std::greater<Tick>());
  }
  return verdict;
}

bool Ledger::overlaps_other(const Transmission& t) const {
  // The window is sorted by begin. Only a bounded neighborhood can overlap
  // t: predecessors whose begin is within max_duration_ of t.begin, and
  // successors whose begin precedes t.end.
  const std::size_t lo = seek_begin_at_or_after(
      head_, window_.size(), t.begin,
      [&](std::size_t i) { return window_[i].begin; });
  for (std::size_t i = lo; i > head_;) {
    const Transmission& other = window_[--i];
    if (other.begin + max_duration_ <= t.begin) break;
    if (static_cast<Admission>(other.admission) == Admission::kRejected)
      continue;  // never reached the medium
    if (other.end > t.begin &&
        !(other.station == t.station && other.begin == t.begin &&
          other.end == t.end))
      return true;
  }
  for (std::size_t i = lo; i < window_.size(); ++i) {
    const Transmission& other = window_[i];
    if (other.begin >= t.end) break;
    if (static_cast<Admission>(other.admission) == Admission::kRejected)
      continue;  // never reached the medium
    if (other.station == t.station && other.begin == t.begin &&
        other.end == t.end)
      continue;  // t itself
    if (intervals_overlap(other.begin, other.end, t.begin, t.end))
      return true;
  }
  return false;
}

void Ledger::finalize_until(Tick now) {
  // Begins are non-decreasing but ends are not, so decidable entries can be
  // interleaved with pending ones; walk the undecided suffix and flip each
  // entry whose end has passed, then advance the decided prefix marker.
  for (std::size_t i = finalized_; i < window_.size(); ++i) {
    Transmission& t = window_[i];
    if (t.decided || t.end > now) continue;
    record_outcome(t, !overlaps_other(t), stats_);
  }
  while (finalized_ < window_.size() && window_[finalized_].decided)
    ++finalized_;
}

Feedback Ledger::feedback_slow(Tick s, Tick t) {
  // The O(1) silence fast paths (and the pending_queries_ accounting) ran
  // inline in the header; from here on the slot provably neighbors at
  // least one live interval.
  ++pending_memo_misses_;
  finalize_until(t);
  // Only a bounded neighborhood of the slot can matter: an entry with
  // begin <= s - max_duration_ has end <= s, so it neither overlaps [s, t)
  // nor ends inside (s, t]. The window is begin-sorted, so seek the first
  // entry that can reach the slot from the tail (channel/window_seek.h,
  // the same seek overlaps_other uses) instead of scanning from the front.
  const std::size_t first = seek_begin_after(
      head_, window_.size(), s - max_duration_,
      [&](std::size_t j) { return window_[j].begin; });
  const SlotScan scan = scan_slot(
      window_.begin() + static_cast<std::ptrdiff_t>(first), window_.end(), s,
      t);
  pending_scanned_ += scan.scanned;
  memo_valid_ = true;
  memo_s_ = s;
  memo_t_ = t;
  memo_fb_ = scan.feedback;
  memo_scanned_ = scan.scanned;
  return scan.feedback;
}

void Ledger::prune_before(Tick horizon) {
  finalize_until(horizon);
  memo_valid_ = false;
  const std::size_t first = head_;
  while (head_ < window_.size() && window_[head_].decided &&
         window_[head_].end <= horizon) {
    AM_CHECK(finalized_ > head_);
    ++head_;
  }
  const auto pruned_end = window_.begin() + static_cast<std::ptrdiff_t>(head_);
  if (keep_history_)
    history_.insert(history_.end(),
                    window_.begin() + static_cast<std::ptrdiff_t>(first),
                    pruned_end);
  ++pending_prunes_;
  pending_pruned_entries_ += head_ - first;
  flush_telemetry();
  if (window_compaction_due(head_, window_.size())) {
    window_.erase(window_.begin(), pruned_end);
    finalized_ -= head_;
    head_ = 0;
  }
}

void Ledger::flush_telemetry() {
  if ((pending_adds_ | pending_queries_ | pending_scanned_ |
       pending_fast_silence_ | pending_memo_hits_ | pending_memo_misses_ |
       pending_prunes_ | pending_pruned_entries_ | window_peak_local_) == 0)
    return;
  LedgerTelemetry& t = LedgerTelemetry::get();
  t.adds.add(pending_adds_);
  t.feedback_queries.add(pending_queries_);
  t.feedback_scanned.add(pending_scanned_);
  t.feedback_fast_silence.add(pending_fast_silence_);
  t.memo_hits.add(pending_memo_hits_);
  t.memo_misses.add(pending_memo_misses_);
  t.prunes.add(pending_prunes_);
  t.pruned_entries.add(pending_pruned_entries_);
  t.window_peak.observe(window_peak_local_);
  pending_adds_ = pending_queries_ = pending_scanned_ =
      pending_fast_silence_ = pending_memo_hits_ = pending_memo_misses_ =
          pending_prunes_ = pending_pruned_entries_ = 0;
  window_peak_local_ = 0;
}

namespace {

/// Encoded size of one Transmission (save_transmission's fields).
constexpr std::size_t kTransmissionBytes = 4 + 8 + 8 + 1 + 8 + 1 + 1 + 1;

void save_transmission(snapshot::Writer& w, const Transmission& t) {
  w.u32(t.station);
  w.i64(t.begin);
  w.i64(t.end);
  w.boolean(t.is_control);
  w.u64(t.packet);
  w.boolean(t.successful);
  w.boolean(t.decided);
  w.u8(t.admission);
}

Transmission load_transmission(snapshot::Reader& r) {
  Transmission t;
  t.station = r.u32();
  t.begin = r.i64();
  t.end = r.i64();
  t.is_control = r.boolean();
  t.packet = r.u64();
  t.successful = r.boolean();
  t.decided = r.boolean();
  t.admission = r.u8();
  return t;
}

}  // namespace

void Ledger::save_state(snapshot::Writer& w) const { save_state(w, {}); }

void Ledger::save_state(snapshot::Writer& w,
                        const FastPathCounts& extra) const {
  w.boolean(keep_history_);
  w.u32(restrained_.k);
  w.boolean(restrained_.jam);
  w.u64(window_.size() - head_);
  for (const Transmission& t : window()) save_transmission(w, t);
  w.u64(finalized_ - head_);
  w.u64(history_.size());
  for (const Transmission& t : history_) save_transmission(w, t);
  w.u64(stats_.transmissions);
  w.u64(stats_.successful);
  w.u64(stats_.collided);
  w.u64(stats_.control_transmissions);
  w.u64(stats_.successful_packets);
  w.i64(stats_.successful_packet_time);
  w.i64(stats_.successful_control_time);
  w.u64(stats_.rejected);
  w.u64(stats_.jammed);
  w.i64(last_begin_);
  w.i64(latest_end_);
  w.i64(max_duration_);
  // Batched telemetry deltas ride along so a resumed run flushes the same
  // not-yet-flushed counts (telemetry itself is outside the determinism
  // contract, but carrying the deltas keeps it *approximately* seamless).
  w.u64(pending_adds_);
  w.u64(pending_queries_ + extra.queries);
  w.u64(pending_scanned_ + extra.scanned);
  w.u64(pending_fast_silence_ + extra.fast_silence);
  w.u64(pending_memo_hits_ + extra.memo_hits);
  w.u64(pending_memo_misses_);
  w.u64(pending_prunes_);
  w.u64(pending_pruned_entries_);
  w.u64(window_peak_local_);
}

void Ledger::load_state(snapshot::Reader& r) {
  memo_valid_ = false;  // cold memo; replay is identical to re-scanning
  const bool keep_history = r.boolean();
  if (keep_history != keep_history_)
    throw snapshot::SnapshotError(
        snapshot::ErrorKind::kMismatch,
        "ledger keep_history flag differs from the snapshot's");
  const std::uint32_t restrained_k = r.u32();
  const bool restrained_jam = r.boolean();
  if (restrained_k != restrained_.k || restrained_jam != restrained_.jam)
    throw snapshot::SnapshotError(
        snapshot::ErrorKind::kMismatch,
        "ledger restrained-channel spec differs from the snapshot's");
  const std::uint64_t window_count = r.count(kTransmissionBytes);
  window_.clear();
  head_ = 0;
  for (std::uint64_t i = 0; i < window_count; ++i)
    window_.push_back(load_transmission(r));
  finalized_ = static_cast<std::size_t>(r.u64());
  if (finalized_ > window_.size())
    throw snapshot::SnapshotError(snapshot::ErrorKind::kCorrupt,
                                  "ledger finalized cursor beyond window");
  const std::uint64_t history_count = r.count(kTransmissionBytes);
  history_.clear();
  history_.reserve(static_cast<std::size_t>(history_count));
  for (std::uint64_t i = 0; i < history_count; ++i)
    history_.push_back(load_transmission(r));
  stats_.transmissions = r.u64();
  stats_.successful = r.u64();
  stats_.collided = r.u64();
  stats_.control_transmissions = r.u64();
  stats_.successful_packets = r.u64();
  stats_.successful_packet_time = r.i64();
  stats_.successful_control_time = r.i64();
  stats_.rejected = r.u64();
  stats_.jammed = r.u64();
  last_begin_ = r.i64();
  latest_end_ = r.i64();
  max_duration_ = r.i64();
  pending_adds_ = r.u64();
  pending_queries_ = r.u64();
  pending_scanned_ = r.u64();
  pending_fast_silence_ = r.u64();
  pending_memo_hits_ = r.u64();
  pending_memo_misses_ = r.u64();
  pending_prunes_ = r.u64();
  pending_pruned_entries_ = r.u64();
  window_peak_local_ = static_cast<std::size_t>(r.u64());
  // Rebuild the admission heap from the non-rejected window entries.
  // Observably equivalent to the pre-save heap: any end the saver had
  // already lazily popped (or pruned) lies at or below every future
  // begin, so it would be popped again before the next admission count.
  live_ends_.clear();
  if (restrained_.enabled()) {
    for (const Transmission& t : window_)
      if (static_cast<Admission>(t.admission) != Admission::kRejected)
        live_ends_.push_back(t.end);
    std::make_heap(live_ends_.begin(), live_ends_.end(), std::greater<Tick>());
  }
}

bool Ledger::transmission_successful(StationId station, Tick end) const {
  for (std::size_t i = window_.size(); i-- > head_;) {
    const Transmission& t = window_[i];
    if (t.station == station && t.end == end) {
      AM_CHECK(t.decided);
      return t.successful;
    }
    // Sorted by begin: once begins are so old they cannot reach `end`,
    // no earlier entry can have this end time.
    if (t.begin + max_duration_ < end) break;
  }
  AM_CHECK_MSG(false, "no transmission of station " << station
                                                    << " ending at " << end);
  return false;
}

}  // namespace asyncmac::channel
