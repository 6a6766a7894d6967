#include "channel/lane_ledger.h"

#include <algorithm>
#include <functional>

#include "channel/window_seek.h"
#include "snapshot/io.h"
#include "telemetry/registry.h"
#include "util/check.h"

namespace asyncmac::channel {

namespace {
// The same channel.* instruments the scalar Ledger flushes into — the
// registry resolves by name, so a lockstep lane contributes to exactly
// the counters its scalar twin would (see ledger.cpp).
struct LaneLedgerTelemetry {
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

  static LaneLedgerTelemetry& get() {
    static LaneLedgerTelemetry t;
    return t;
  }
};
}  // namespace

void LaneLedger::Window::push(const Transmission& t) {
  begin.push_back(t.begin);
  end.push_back(t.end);
  station.push_back(t.station);
  packet.push_back(t.packet);
  is_control.push_back(t.is_control ? 1 : 0);
  // Success flags start cleared; a rejected transmission arrives decided
  // (the scalar add() flips it before the window push).
  successful.push_back(0);
  decided.push_back(t.decided ? 1 : 0);
  admission.push_back(t.admission);
}

void LaneLedger::Window::compact() {
  // Amortized O(1): only when the dead prefix dominates the live tail.
  if (!window_compaction_due(head, size())) return;
  const auto h = static_cast<std::ptrdiff_t>(head);
  begin.erase(begin.begin(), begin.begin() + h);
  end.erase(end.begin(), end.begin() + h);
  station.erase(station.begin(), station.begin() + h);
  packet.erase(packet.begin(), packet.begin() + h);
  is_control.erase(is_control.begin(), is_control.begin() + h);
  successful.erase(successful.begin(), successful.begin() + h);
  decided.erase(decided.begin(), decided.begin() + h);
  admission.erase(admission.begin(), admission.begin() + h);
  finalized -= head;
  head = 0;
}

LaneLedger::LaneLedger(std::uint32_t lanes, bool keep_history,
                       RestrainedSpec restrained)
    : K_(lanes), keep_history_(keep_history), restrained_(restrained) {
  AM_REQUIRE(lanes >= 1, "lane ledger needs at least one lane");
  win_.resize(K_);
  history_.resize(K_);
  live_ends_.resize(K_);
  stats_.resize(K_);
  live_count_.assign(K_, 0);
  fin_pending_.assign(K_, 0);
  latest_end_.assign(K_, 0);
  last_begin_.assign(K_, 0);
  max_duration_.assign(K_, 0);
  memo_valid_.assign(K_, 0);
  memo_s_.assign(K_, 0);
  memo_t_.assign(K_, 0);
  memo_fb_.assign(K_, static_cast<std::uint8_t>(Feedback::kSilence));
  memo_scanned_.assign(K_, 0);
  pend_adds_.assign(K_, 0);
  pend_queries_.assign(K_, 0);
  pend_scanned_.assign(K_, 0);
  pend_fast_silence_.assign(K_, 0);
  pend_memo_hits_.assign(K_, 0);
  pend_memo_misses_.assign(K_, 0);
  pend_prunes_.assign(K_, 0);
  pend_pruned_entries_.assign(K_, 0);
  window_peak_.assign(K_, 0);
  code_.assign(K_, 0);
  rare_.assign(K_, 0);
}

LaneLedger::~LaneLedger() {
  for (std::uint32_t k = 0; k < K_; ++k) flush_telemetry(k);
}

void LaneLedger::add(std::uint32_t lane, const Transmission& t_in) {
  Transmission t = t_in;
  AM_CHECK_MSG(t.begin >= last_begin_[lane],
               "transmissions must be added in begin order: "
                   << t.begin << " < " << last_begin_[lane]);
  AM_CHECK(t.end > t.begin);
  AM_CHECK(t.station != kInvalidStation);
  t.decided = false;
  t.successful = false;
  t.admission = static_cast<std::uint8_t>(Admission::kOk);
  if (restrained_.enabled()) {
    const Admission verdict = admit(lane, t.begin, t.end);
    t.admission = static_cast<std::uint8_t>(verdict);
    if (verdict == Admission::kJammed) {
      ++stats_[lane].jammed;
    } else if (verdict == Admission::kRejected) {
      // Scalar rule (ledger.cpp add): decided-unsuccessful at add, and
      // counted as collided so successful + collided keeps tracking the
      // decided count.
      t.decided = true;
      ++stats_[lane].rejected;
      ++stats_[lane].collided;
    }
  }
  last_begin_[lane] = t.begin;
  latest_end_[lane] = std::max(latest_end_[lane], t.end);
  const Tick prev_max_duration = max_duration_[lane];
  max_duration_[lane] = std::max(prev_max_duration, t.duration());
  ++stats_[lane].transmissions;
  if (t.is_control) ++stats_[lane].control_transmissions;
  win_[lane].push(t);
  ++live_count_[lane];
  fin_pending_[lane] = 1;
  // The scalar Ledger's memo-survival rule (ledger.cpp): an add can only
  // be ignored when its begin is at or past memo_t_ and it did not grow
  // the global max duration (which shifts the scan's seek point).
  if (t.begin < memo_t_[lane] || max_duration_[lane] != prev_max_duration)
    memo_valid_[lane] = 0;
  ++pend_adds_[lane];
  if (win_[lane].live() > window_peak_[lane])
    window_peak_[lane] = win_[lane].live();
}

Admission LaneLedger::admit(std::uint32_t lane, Tick begin, Tick end) {
  std::vector<Tick>& heap = live_ends_[lane];
  while (!heap.empty() && heap.front() <= begin) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<Tick>());
    heap.pop_back();
  }
  if (heap.size() < restrained_.k) {
    heap.push_back(end);
    std::push_heap(heap.begin(), heap.end(), std::greater<Tick>());
    return Admission::kOk;
  }
  if (restrained_.jam) {
    heap.push_back(end);
    std::push_heap(heap.begin(), heap.end(), std::greater<Tick>());
    return Admission::kJammed;
  }
  return Admission::kRejected;
}

bool LaneLedger::overlaps_other(const Window& w, Tick max_dur,
                                std::size_t i) const {
  const Tick b = w.begin[i];
  const Tick e = w.end[i];
  const StationId st = w.station[i];
  // w.begin[head..size) is sorted; seek as the scalar overlaps_other does.
  const std::size_t lo = seek_begin_at_or_after(
      w.head, w.size(), b, [&](std::size_t j) { return w.begin[j]; });
  for (std::size_t j = lo; j > w.head;) {
    --j;
    if (w.begin[j] + max_dur <= b) break;
    if (static_cast<Admission>(w.admission[j]) == Admission::kRejected)
      continue;  // never reached the medium
    if (w.end[j] > b &&
        !(w.station[j] == st && w.begin[j] == b && w.end[j] == e))
      return true;
  }
  for (std::size_t j = lo; j < w.size(); ++j) {
    if (w.begin[j] >= e) break;
    if (static_cast<Admission>(w.admission[j]) == Admission::kRejected)
      continue;  // never reached the medium
    if (w.station[j] == st && w.begin[j] == b && w.end[j] == e)
      continue;  // the entry itself
    if (intervals_overlap(w.begin[j], w.end[j], b, e)) return true;
  }
  return false;
}

void LaneLedger::finalize_until(std::uint32_t lane, Tick now) {
  Window& w = win_[lane];
  LedgerStats& st = stats_[lane];
  const Tick max_dur = max_duration_[lane];
  for (std::size_t i = w.finalized; i < w.size(); ++i) {
    if (w.decided[i] || w.end[i] > now) continue;
    const bool ok = !overlaps_other(w, max_dur, i);
    w.successful[i] = ok ? 1 : 0;
    w.decided[i] = 1;
    if (ok) {
      ++st.successful;
      const Tick dur = w.end[i] - w.begin[i];
      if (w.is_control[i]) {
        st.successful_control_time += dur;
      } else {
        ++st.successful_packets;
        st.successful_packet_time += dur;
      }
    } else {
      ++st.collided;
    }
  }
  while (w.finalized < w.size() && w.decided[w.finalized]) ++w.finalized;
  fin_pending_[lane] = w.finalized < w.size() ? 1 : 0;
}

Feedback LaneLedger::feedback_slow(std::uint32_t lane, Tick s, Tick t) {
  ++pend_memo_misses_[lane];
  finalize_until(lane, t);
  Window& w = win_[lane];
  // Seek the first entry that can reach the slot (begin > s - max_dur),
  // the scalar feedback_slow's seek over the flat begin array.
  const Tick lo_begin = s - max_duration_[lane];
  std::size_t i = seek_begin_after(
      w.head, w.size(), lo_begin, [&](std::size_t j) { return w.begin[j]; });
  bool any_overlap = false;
  std::uint64_t scanned = 0;
  const auto record = [&](Feedback fb) {
    pend_scanned_[lane] += scanned;
    memo_valid_[lane] = 1;
    memo_s_[lane] = s;
    memo_t_[lane] = t;
    memo_fb_[lane] = static_cast<std::uint8_t>(fb);
    memo_scanned_[lane] = scanned;
    return fb;
  };
  for (; i < w.size(); ++i) {
    if (w.begin[i] >= t) break;
    ++scanned;
    // Rejected transmissions are invisible to feedback (scalar rule:
    // counted in the scan telemetry, neither ack nor busy).
    if (static_cast<Admission>(w.admission[i]) == Admission::kRejected)
      continue;
    if (w.end[i] > s && w.end[i] <= t) {
      AM_CHECK(w.decided[i]);  // end <= t means finalize_until(t) decided it
      if (w.successful[i]) return record(Feedback::kAck);
    }
    if (!any_overlap)
      any_overlap = intervals_overlap(w.begin[i], w.end[i], s, t);
  }
  return record(any_overlap ? Feedback::kBusy : Feedback::kSilence);
}

bool LaneLedger::feedback_all(Tick s, Tick t,
                              const std::vector<std::uint32_t>& active,
                              Feedback* fb) {
  AM_CHECK(s < t);
  // Pass 0 — cohort-wide fast-silence gate: the vectorized analogue of
  // the scalar Ledger's two O(1) silence fast paths. On mostly-listen
  // workloads (the dominant shape for arrow protocols) every lane is
  // code 0 — empty live window, or a query starting at/after every known
  // transmission end with no finalization pending — and the whole call
  // collapses to one AND-reduction plus three unit-stride counter loops,
  // all over flat arrays with no calls: exactly what the auto-vectorizer
  // lifts to SIMD. Byte-identity: code 0 touches only pend_queries_ and
  // pend_fast_silence_, the same increments the general pass makes.
  if (active.size() == K_) {
    std::uint32_t all_quiet = 1;
    for (std::uint32_t k = 0; k < K_; ++k)
      all_quiet &= static_cast<std::uint32_t>(live_count_[k] == 0) |
                   (static_cast<std::uint32_t>(s >= latest_end_[k]) &
                    static_cast<std::uint32_t>(fin_pending_[k] == 0));
    if (all_quiet != 0) {
      for (std::uint32_t k = 0; k < K_; ++k) ++pend_queries_[k];
      for (std::uint32_t k = 0; k < K_; ++k) ++pend_fast_silence_[k];
      for (std::uint32_t k = 0; k < K_; ++k) fb[k] = Feedback::kSilence;
      return true;
    }
    // Pass 0b — cohort-wide memo-replay gate. Under a synchronous slot
    // policy every station's slot in a round spans the same [s, t), so
    // once one event in a busy round pays the seek-and-scan, the other
    // n-1 replay the memo — in every lane at once when the cohort moves
    // in step (the common case for seed-varying lanes on deterministic
    // protocols). The gate checks each lane would classify exactly code 2
    // (live window, s below latest end, memo match) and then applies the
    // code-2 increments verbatim, skipping the general pass.
    std::uint32_t all_memo = 1;
    for (std::uint32_t k = 0; k < K_; ++k)
      all_memo &= static_cast<std::uint32_t>(live_count_[k] != 0) &
                  static_cast<std::uint32_t>(s < latest_end_[k]) &
                  static_cast<std::uint32_t>(memo_valid_[k] != 0) &
                  static_cast<std::uint32_t>(s == memo_s_[k]) &
                  static_cast<std::uint32_t>(t == memo_t_[k]);
    if (all_memo != 0) {
      for (std::uint32_t k = 0; k < K_; ++k) ++pend_queries_[k];
      for (std::uint32_t k = 0; k < K_; ++k) ++pend_memo_hits_[k];
      for (std::uint32_t k = 0; k < K_; ++k)
        pend_scanned_[k] += memo_scanned_[k];
      for (std::uint32_t k = 0; k < K_; ++k)
        fb[k] = static_cast<Feedback>(memo_fb_[k]);
      return false;
    }
  }
  // Pass 1 — branch-light classification over the contiguous summary
  // arrays. The common outcomes (fast silence, memo replay) complete
  // here; pass 0 already drained the all-quiet events, so this runs only
  // when some lane has live entries or pending finalization.
  std::size_t nrare = 0;
  for (std::size_t a = 0; a < active.size(); ++a) {
    const std::uint32_t k = active[a];
    ++pend_queries_[k];
    const bool empty = live_count_[k] == 0;
    const bool fast = s >= latest_end_[k];
    const bool memo =
        memo_valid_[k] != 0 && s == memo_s_[k] && t == memo_t_[k];
    // 0 = fast silence, 1 = fast silence needing finalize catch-up,
    // 2 = memo replay, 3 = slow seek-and-scan.
    const std::uint8_t code =
        empty ? 0 : fast ? (fin_pending_[k] ? 1 : 0) : memo ? 2 : 3;
    pend_fast_silence_[k] += code <= 1;
    pend_scanned_[k] += code == 2 ? memo_scanned_[k] : 0;
    pend_memo_hits_[k] += code == 2;
    fb[k] = code == 2 ? static_cast<Feedback>(memo_fb_[k])
                      : Feedback::kSilence;
    code_[k] = code;
    rare_[nrare] = k;
    nrare += (code == 1) | (code == 3);
  }
  // Pass 2 — the rare lanes only: finalize catch-up keeps LedgerStats
  // current for adaptive adversaries; the slow tail is the scalar
  // Ledger's seek-and-scan, ported to the flat arrays.
  for (std::size_t a = 0; a < nrare; ++a) {
    const std::uint32_t k = rare_[a];
    if (code_[k] == 1)
      finalize_until(k, t);
    else
      fb[k] = feedback_slow(k, s, t);
  }
  return false;
}

void LaneLedger::prune_before(std::uint32_t lane, Tick horizon) {
  finalize_until(lane, horizon);
  memo_valid_[lane] = 0;
  Window& w = win_[lane];
  std::uint64_t removed = 0;
  while (w.head < w.size() && w.decided[w.head] && w.end[w.head] <= horizon) {
    if (keep_history_) {
      Transmission t;
      t.station = w.station[w.head];
      t.begin = w.begin[w.head];
      t.end = w.end[w.head];
      t.is_control = w.is_control[w.head] != 0;
      t.packet = w.packet[w.head];
      t.successful = w.successful[w.head] != 0;
      t.decided = true;
      t.admission = w.admission[w.head];
      history_[lane].push_back(t);
    }
    AM_CHECK(w.finalized > w.head);
    ++w.head;
    ++removed;
  }
  live_count_[lane] = static_cast<std::uint32_t>(w.live());
  ++pend_prunes_[lane];
  pend_pruned_entries_[lane] += removed;
  flush_telemetry(lane);
  w.compact();
}

void LaneLedger::flush_telemetry(std::uint32_t lane) {
  if ((pend_adds_[lane] | pend_queries_[lane] | pend_scanned_[lane] |
       pend_fast_silence_[lane] | pend_memo_hits_[lane] |
       pend_memo_misses_[lane] | pend_prunes_[lane] |
       pend_pruned_entries_[lane] | window_peak_[lane]) == 0)
    return;
  LaneLedgerTelemetry& t = LaneLedgerTelemetry::get();
  t.adds.add(pend_adds_[lane]);
  t.feedback_queries.add(pend_queries_[lane]);
  t.feedback_scanned.add(pend_scanned_[lane]);
  t.feedback_fast_silence.add(pend_fast_silence_[lane]);
  t.memo_hits.add(pend_memo_hits_[lane]);
  t.memo_misses.add(pend_memo_misses_[lane]);
  t.prunes.add(pend_prunes_[lane]);
  t.pruned_entries.add(pend_pruned_entries_[lane]);
  t.window_peak.observe(static_cast<std::size_t>(window_peak_[lane]));
  pend_adds_[lane] = pend_queries_[lane] = pend_scanned_[lane] =
      pend_fast_silence_[lane] = pend_memo_hits_[lane] =
          pend_memo_misses_[lane] = pend_prunes_[lane] =
              pend_pruned_entries_[lane] = 0;
  window_peak_[lane] = 0;
}

bool LaneLedger::transmission_successful(std::uint32_t lane,
                                         StationId station, Tick end) const {
  const Window& w = win_[lane];
  for (std::size_t i = w.size(); i-- > w.head;) {
    if (w.station[i] == station && w.end[i] == end) {
      AM_CHECK(w.decided[i]);
      return w.successful[i] != 0;
    }
    // Sorted by begin: once begins are so old they cannot reach `end`,
    // no earlier entry can have this end time (scalar rule).
    if (w.begin[i] + max_duration_[lane] < end) break;
  }
  AM_CHECK_MSG(false, "no transmission of station " << station
                                                    << " ending at " << end);
  return false;
}

void LaneLedger::save_state(std::uint32_t lane, snapshot::Writer& w) const {
  // Ledger::save_state's exact field order (channel/ledger.cpp — the KEEP
  // IN SYNC note there points back here).
  const Window& win = win_[lane];
  const auto entry = [&](std::size_t i) {
    w.u32(win.station[i]);
    w.i64(win.begin[i]);
    w.i64(win.end[i]);
    w.boolean(win.is_control[i] != 0);
    w.u64(win.packet[i]);
    w.boolean(win.successful[i] != 0);
    w.boolean(win.decided[i] != 0);
    w.u8(win.admission[i]);
  };
  w.boolean(keep_history_);
  w.u32(restrained_.k);
  w.boolean(restrained_.jam);
  w.u64(win.live());
  for (std::size_t i = win.head; i < win.size(); ++i) entry(i);
  w.u64(win.finalized - win.head);
  w.u64(history_[lane].size());
  for (const Transmission& t : history_[lane]) {
    w.u32(t.station);
    w.i64(t.begin);
    w.i64(t.end);
    w.boolean(t.is_control);
    w.u64(t.packet);
    w.boolean(t.successful);
    w.boolean(t.decided);
    w.u8(t.admission);
  }
  const LedgerStats& st = stats_[lane];
  w.u64(st.transmissions);
  w.u64(st.successful);
  w.u64(st.collided);
  w.u64(st.control_transmissions);
  w.u64(st.successful_packets);
  w.i64(st.successful_packet_time);
  w.i64(st.successful_control_time);
  w.u64(st.rejected);
  w.u64(st.jammed);
  w.i64(last_begin_[lane]);
  w.i64(latest_end_[lane]);
  w.i64(max_duration_[lane]);
  w.u64(pend_adds_[lane]);
  w.u64(pend_queries_[lane]);
  w.u64(pend_scanned_[lane]);
  w.u64(pend_fast_silence_[lane]);
  w.u64(pend_memo_hits_[lane]);
  w.u64(pend_memo_misses_[lane]);
  w.u64(pend_prunes_[lane]);
  w.u64(pend_pruned_entries_[lane]);
  w.u64(window_peak_[lane]);
}

}  // namespace asyncmac::channel
