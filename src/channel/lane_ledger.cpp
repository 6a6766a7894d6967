#include "channel/lane_ledger.h"

#include <algorithm>

#include "util/check.h"

namespace asyncmac::channel {

LaneLedger::LaneLedger(std::uint32_t lanes, bool keep_history,
                       RestrainedSpec restrained)
    : K_(lanes) {
  AM_REQUIRE(lanes >= 1, "lane ledger needs at least one lane");
  ledger_.reserve(K_);
  for (std::uint32_t k = 0; k < K_; ++k)
    ledger_.push_back(std::make_unique<Ledger>(keep_history, restrained));
  live_count_.assign(K_, 0);
  fin_pending_.assign(K_, 0);
  latest_end_.assign(K_, 0);
  memo_valid_.assign(K_, 0);
  memo_s_.assign(K_, 0);
  memo_t_.assign(K_, 0);
  memo_fb_.assign(K_, static_cast<std::uint8_t>(Feedback::kSilence));
  memo_scanned_.assign(K_, 0);
  pend_queries_.assign(K_, 0);
  pend_fast_silence_.assign(K_, 0);
  pend_memo_hits_.assign(K_, 0);
  pend_scanned_.assign(K_, 0);
  rare_.assign(K_, 0);
}

LaneLedger::~LaneLedger() {
  // Each Ledger flushes its pending counters as it is destroyed.
  for (std::uint32_t k = 0; k < K_; ++k) fold(k);
}

void LaneLedger::fold(std::uint32_t k) noexcept {
  Ledger& l = *ledger_[k];
  l.pending_queries_ += pend_queries_[k];
  l.pending_fast_silence_ += pend_fast_silence_[k];
  l.pending_memo_hits_ += pend_memo_hits_[k];
  l.pending_scanned_ += pend_scanned_[k];
  pend_queries_[k] = pend_fast_silence_[k] = pend_memo_hits_[k] =
      pend_scanned_[k] = 0;
}

void LaneLedger::refresh(std::uint32_t k) noexcept {
  const Ledger& l = *ledger_[k];
  live_count_[k] = static_cast<std::uint32_t>(l.window_.size() - l.head_);
  fin_pending_[k] = l.finalized_ < l.window_.size() ? 1 : 0;
  latest_end_[k] = l.latest_end_;
  memo_valid_[k] = l.memo_valid_ ? 1 : 0;
  memo_s_[k] = l.memo_s_;
  memo_t_[k] = l.memo_t_;
  memo_fb_[k] = static_cast<std::uint8_t>(l.memo_fb_);
  memo_scanned_[k] = l.memo_scanned_;
}

void LaneLedger::add(std::uint32_t lane, const Transmission& t) {
  ledger_[lane]->add(t);
  refresh(lane);
}

bool LaneLedger::feedback_all(Tick s, Tick t,
                              const std::vector<std::uint32_t>& active,
                              Feedback* fb) {
  AM_CHECK(s < t);
  // Cohort-wide gates first. On mostly-listen workloads (the dominant
  // shape for arrow protocols) every lane is quiet and the call collapses
  // to one AND-reduction plus unit-stride counter loops. Under a
  // synchronous slot policy every station's slot in a round spans the
  // same [s, t), so once one event in a busy round pays the seek-and-scan
  // the other n-1 replay the memo — in every lane at once when the cohort
  // moves in step.
  if (active.size() == K_) {
    if (all_quiet(s)) {
      apply_all_quiet();
      std::fill(fb, fb + K_, Feedback::kSilence);
      return true;
    }
    if (all_memo(s, t)) {
      apply_all_memo(1);
      for (std::uint32_t k = 0; k < K_; ++k)
        fb[k] = static_cast<Feedback>(memo_fb_[k]);
      return false;
    }
  }
  // Per-lane classification over the gate index, mirroring the branches
  // of Ledger::feedback: 0 = fast silence, 1 = fast silence needing a
  // finalize catch-up, 2 = memo replay, 3 = memo miss (seek-and-scan).
  // Codes 0 and 2 complete here with batched counters; codes 1 and 3 are
  // the rare lanes, answered by Ledger::feedback itself.
  std::size_t nrare = 0;
  for (std::size_t a = 0; a < active.size(); ++a) {
    const std::uint32_t k = active[a];
    const bool empty = live_count_[k] == 0;
    const bool fast = s >= latest_end_[k];
    const bool memo =
        memo_valid_[k] != 0 && s == memo_s_[k] && t == memo_t_[k];
    const std::uint8_t code =
        empty ? 0 : fast ? (fin_pending_[k] ? 1 : 0) : memo ? 2 : 3;
    const bool rare = (code & 1) != 0;
    pend_queries_[k] += !rare;
    pend_fast_silence_[k] += code == 0;
    pend_memo_hits_[k] += code == 2;
    pend_scanned_[k] += code == 2 ? memo_scanned_[k] : 0;
    fb[k] = code == 2 ? static_cast<Feedback>(memo_fb_[k])
                      : Feedback::kSilence;
    rare_[nrare] = k;
    nrare += rare;
  }
  for (std::size_t a = 0; a < nrare; ++a) {
    const std::uint32_t k = rare_[a];
    fb[k] = ledger_[k]->feedback(s, t);
    refresh(k);
  }
  return false;
}

void LaneLedger::prune_before(std::uint32_t lane, Tick horizon) {
  fold(lane);
  ledger_[lane]->prune_before(horizon);
  refresh(lane);
}

void LaneLedger::flush_telemetry(std::uint32_t lane) {
  fold(lane);
  ledger_[lane]->flush_telemetry();
}

void LaneLedger::save_state(std::uint32_t lane, snapshot::Writer& w) const {
  ledger_[lane]->save_state(
      w, {pend_queries_[lane], pend_fast_silence_[lane],
          pend_memo_hits_[lane], pend_scanned_[lane]});
}

}  // namespace asyncmac::channel
