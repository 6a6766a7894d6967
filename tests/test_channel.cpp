// Unit tests for the channel model: exact overlap semantics, success
// finalization, the ack/busy/silence feedback truth table (Section II),
// pruning and statistics, the shared tail seek (channel/window_seek.h) and
// the contiguous window's compaction.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "channel/ledger.h"
#include "channel/transmission.h"
#include "channel/window_seek.h"
#include "snapshot/io.h"
#include "util/rng.h"
#include "util/types.h"

namespace asyncmac::channel {
namespace {

constexpr Tick U = kTicksPerUnit;

Transmission tx(StationId s, Tick begin, Tick end, bool control = false) {
  Transmission t;
  t.station = s;
  t.begin = begin;
  t.end = end;
  t.is_control = control;
  return t;
}

// ---------------------------------------------------------------- overlap

TEST(Overlap, ProperOverlap) {
  EXPECT_TRUE(intervals_overlap(0, 10, 5, 15));
  EXPECT_TRUE(intervals_overlap(5, 15, 0, 10));
  EXPECT_TRUE(intervals_overlap(0, 10, 2, 8));  // containment
}

TEST(Overlap, TouchingEndpointsDoNotOverlap) {
  EXPECT_FALSE(intervals_overlap(0, 10, 10, 20));
  EXPECT_FALSE(intervals_overlap(10, 20, 0, 10));
}

TEST(Overlap, DisjointIntervals) {
  EXPECT_FALSE(intervals_overlap(0, 10, 11, 20));
}

// --------------------------------------------------------------- feedback

TEST(Ledger, SilenceWhenNothingTransmitted) {
  Ledger ledger;
  EXPECT_EQ(ledger.feedback(0, U), Feedback::kSilence);
}

TEST(Ledger, LoneTransmissionAcksItsOwnSlot) {
  Ledger ledger;
  ledger.add(tx(1, 0, U));
  // The transmitter's slot [0, U): its own success ends inside -> ack.
  EXPECT_EQ(ledger.feedback(0, U), Feedback::kAck);
}

TEST(Ledger, ListenerHearsAckWhenSuccessEndsInsideItsSlot) {
  Ledger ledger;
  ledger.add(tx(1, 0, U));
  // Listener slot [0, 2U) contains the end at U -> ack.
  EXPECT_EQ(ledger.feedback(0, 2 * U), Feedback::kAck);
}

TEST(Ledger, EndExactlyAtSlotEndCountsAsInThatSlot) {
  Ledger ledger;
  ledger.add(tx(1, 0, U));
  // Listener slot [0, U): end at U is charged to (0, U] -> ack.
  EXPECT_EQ(ledger.feedback(0, U), Feedback::kAck);
  // Next slot [U, 2U): the end at U belongs to the previous slot.
  EXPECT_EQ(ledger.feedback(U, 2 * U), Feedback::kSilence);
}

TEST(Ledger, BusyWhileTransmissionOngoing) {
  Ledger ledger;
  ledger.add(tx(1, 0, 3 * U));
  // A slot that overlaps but does not contain the end -> busy.
  EXPECT_EQ(ledger.feedback(0, U), Feedback::kBusy);
  EXPECT_EQ(ledger.feedback(U, 2 * U), Feedback::kBusy);
  // The slot containing the end gets the ack.
  EXPECT_EQ(ledger.feedback(2 * U, 3 * U), Feedback::kAck);
}

TEST(Ledger, CollisionGivesBusyNotAck) {
  Ledger ledger;
  ledger.add(tx(1, 0, 2 * U));
  ledger.add(tx(2, U, 3 * U));
  // Both transmissions overlap: no ack anywhere.
  EXPECT_EQ(ledger.feedback(0, 2 * U), Feedback::kBusy);   // tx1's slot
  EXPECT_EQ(ledger.feedback(U, 3 * U), Feedback::kBusy);   // tx2's slot
  EXPECT_EQ(ledger.feedback(0, 4 * U), Feedback::kBusy);   // observer
  EXPECT_EQ(ledger.stats().collided, 2u);
  EXPECT_EQ(ledger.stats().successful, 0u);
}

TEST(Ledger, BackToBackTransmissionsBothSucceed) {
  Ledger ledger;
  ledger.add(tx(1, 0, U));
  ledger.add(tx(2, U, 2 * U));
  ledger.finalize_until(2 * U);
  EXPECT_EQ(ledger.stats().successful, 2u);
  EXPECT_EQ(ledger.stats().collided, 0u);
  // A slot covering both ends still reports ack.
  EXPECT_EQ(ledger.feedback(0, 2 * U), Feedback::kAck);
}

TEST(Ledger, AckDominatesBusyInMixedSlot) {
  Ledger ledger;
  ledger.add(tx(1, 0, U));          // successful, ends at U
  ledger.add(tx(2, 2 * U, 4 * U));  // collides with tx3
  ledger.add(tx(3, 3 * U, 5 * U));
  // Observer slot [0, 5U): a successful transmission ended inside -> ack
  // takes precedence over the later collision noise.
  EXPECT_EQ(ledger.feedback(0, 5 * U), Feedback::kAck);
}

TEST(Ledger, SilenceBetweenTransmissions) {
  Ledger ledger;
  ledger.add(tx(1, 0, U));
  ledger.add(tx(2, 5 * U, 6 * U));
  EXPECT_EQ(ledger.feedback(2 * U, 3 * U), Feedback::kSilence);
}

TEST(Ledger, TransmissionStartingAtSlotEndDoesNotAffectIt) {
  Ledger ledger;
  ledger.add(tx(1, U, 2 * U));
  EXPECT_EQ(ledger.feedback(0, U), Feedback::kSilence);
}

// ------------------------------------------------------- success decision

TEST(Ledger, SuccessDecidableAtEndDespiteLaterQueries) {
  Ledger ledger;
  ledger.add(tx(1, 0, 2 * U));
  ledger.finalize_until(2 * U);
  EXPECT_TRUE(ledger.transmission_successful(1, 2 * U));
  // A transmission starting exactly at the end does not change that.
  ledger.add(tx(2, 2 * U, 3 * U));
  ledger.finalize_until(3 * U);
  EXPECT_TRUE(ledger.transmission_successful(1, 2 * U));
  EXPECT_TRUE(ledger.transmission_successful(2, 3 * U));
}

TEST(Ledger, NestedTransmissionCollidesBoth) {
  Ledger ledger;
  ledger.add(tx(1, 0, 10 * U));
  ledger.add(tx(2, 4 * U, 5 * U));
  ledger.finalize_until(10 * U);
  EXPECT_FALSE(ledger.transmission_successful(1, 10 * U));
  EXPECT_FALSE(ledger.transmission_successful(2, 5 * U));
}

TEST(Ledger, ThreeWayCollision) {
  Ledger ledger;
  ledger.add(tx(1, 0, 3 * U));
  ledger.add(tx(2, U, 4 * U));
  ledger.add(tx(3, 2 * U, 5 * U));
  ledger.finalize_until(5 * U);
  EXPECT_EQ(ledger.stats().collided, 3u);
}

TEST(Ledger, ChainOfPairwiseOverlapsAllFail) {
  Ledger ledger;
  // 1 overlaps 2, 2 overlaps 3, but 1 and 3 are disjoint: still all fail
  // because success requires no overlap with ANY transmission.
  ledger.add(tx(1, 0, 2 * U));
  ledger.add(tx(2, U, 4 * U));
  ledger.add(tx(3, 3 * U, 5 * U));
  ledger.finalize_until(5 * U);
  EXPECT_EQ(ledger.stats().collided, 3u);
  EXPECT_EQ(ledger.stats().successful, 0u);
}

// ------------------------------------------------------------------ stats

TEST(Ledger, StatsDistinguishControlFromPackets) {
  Ledger ledger;
  ledger.add(tx(1, 0, U, /*control=*/true));
  ledger.add(tx(2, 2 * U, 4 * U, /*control=*/false));
  ledger.finalize_until(4 * U);
  const auto& s = ledger.stats();
  EXPECT_EQ(s.transmissions, 2u);
  EXPECT_EQ(s.control_transmissions, 1u);
  EXPECT_EQ(s.successful, 2u);
  EXPECT_EQ(s.successful_packets, 1u);
  EXPECT_EQ(s.successful_packet_time, 2 * U);
  EXPECT_EQ(s.successful_control_time, U);
}

TEST(Ledger, StatsSurvivePruning) {
  Ledger ledger;
  for (int i = 0; i < 10; ++i)
    ledger.add(tx(1, 2 * i * U, (2 * i + 1) * U));
  ledger.finalize_until(100 * U);
  ledger.prune_before(100 * U);
  EXPECT_TRUE(ledger.window().empty());
  EXPECT_EQ(ledger.stats().successful, 10u);
  EXPECT_EQ(ledger.stats().successful_packet_time, 10 * U);
}

TEST(Ledger, HistoryRetainedWhenRequested) {
  Ledger ledger(/*keep_history=*/true);
  ledger.add(tx(1, 0, U));
  ledger.add(tx(2, 2 * U, 3 * U));
  ledger.finalize_until(3 * U);
  ledger.prune_before(3 * U);
  EXPECT_EQ(ledger.full_history().size(), 2u);
  EXPECT_TRUE(ledger.full_history()[0].successful);
}

TEST(Ledger, PruneKeepsUndecidedTransmissions) {
  Ledger ledger;
  ledger.add(tx(1, 0, 10 * U));  // still in flight at horizon 5U
  ledger.prune_before(5 * U);
  EXPECT_EQ(ledger.window().size(), 1u);
}

// ------------------------------------------------------------- invariants

TEST(Ledger, RejectsOutOfOrderBegins) {
  Ledger ledger;
  ledger.add(tx(1, 5 * U, 6 * U));
  EXPECT_THROW(ledger.add(tx(2, 4 * U, 7 * U)), std::logic_error);
}

TEST(Ledger, RejectsEmptyInterval) {
  Ledger ledger;
  EXPECT_THROW(ledger.add(tx(1, U, U)), std::logic_error);
}

TEST(Ledger, RejectsInvalidStation) {
  Ledger ledger;
  EXPECT_THROW(ledger.add(tx(kInvalidStation, 0, U)), std::logic_error);
}

TEST(Ledger, LatestEndTracksMaximum) {
  Ledger ledger;
  ledger.add(tx(1, 0, 5 * U));
  ledger.add(tx(2, U, 2 * U));
  EXPECT_EQ(ledger.latest_end(), 5 * U);
}

TEST(Ledger, EqualBeginTransmissionsCollide) {
  Ledger ledger;
  ledger.add(tx(1, 0, U));
  ledger.add(tx(2, 0, 2 * U));
  ledger.finalize_until(2 * U);
  EXPECT_EQ(ledger.stats().collided, 2u);
}

TEST(Ledger, IdenticalIntervalDifferentStationsCollide) {
  Ledger ledger;
  ledger.add(tx(1, 0, U));
  ledger.add(tx(2, 0, U));
  ledger.finalize_until(U);
  EXPECT_EQ(ledger.stats().collided, 2u);
  EXPECT_EQ(ledger.feedback(0, U), Feedback::kBusy);
}

// ------------------------------------------------------------ window seek

// Worst-case probe count the tail seek promises for a range of w entries.
std::size_t seek_probe_bound(std::size_t w) {
  return w == 0 ? 0 : 2 * static_cast<std::size_t>(std::bit_width(w - 1)) + 1;
}

// A begin-sorted array with long runs of equal begins: most steps repeat
// the previous begin, the rest jump by a small random amount.
std::vector<Tick> sorted_begins(util::Rng& rng, std::size_t size) {
  std::vector<Tick> begins(size);
  Tick b = rng.range(-5, 5);
  for (Tick& x : begins) {
    if (!rng.chance(0.6)) b += rng.range(1, 3);
    x = b;
  }
  return begins;
}

TEST(WindowSeek, MatchesStdBoundsOnRandomSortedArrays) {
  util::Rng rng(4242);
  // Sizes 0..300 cross every power of two the gallop steps through.
  for (std::size_t size = 0; size <= 300; ++size) {
    for (int trial = 0; trial < 4; ++trial) {
      const std::vector<Tick> begins = sorted_begins(rng, size);
      // Nonzero head offsets, including the empty range lo == hi.
      const std::size_t lo = trial == 0 ? 0 : rng.below(size + 1);
      const std::size_t hi = size;
      std::vector<Tick> keys;
      if (size > 0) {
        keys.push_back(begins.front() - 1);  // before all entries
        keys.push_back(begins.back() + 1);   // after all entries
      } else {
        keys.push_back(0);
      }
      for (std::size_t i = lo; i < hi; ++i) {
        keys.push_back(begins[i]);
        keys.push_back(begins[i] + 1);
      }
      const auto first = begins.begin() + static_cast<std::ptrdiff_t>(lo);
      for (const Tick key : keys) {
        std::size_t probes = 0;
        const auto begin_of = [&](std::size_t i) {
          EXPECT_GE(i, lo);
          EXPECT_LT(i, hi);
          ++probes;
          return begins[i];
        };
        const auto want_lower = static_cast<std::size_t>(
            std::lower_bound(first, begins.end(), key) - begins.begin());
        ASSERT_EQ(seek_begin_at_or_after(lo, hi, key, begin_of), want_lower)
            << "size " << size << " lo " << lo << " key " << key;
        EXPECT_LE(probes, seek_probe_bound(hi - lo));
        probes = 0;
        const auto want_upper = static_cast<std::size_t>(
            std::upper_bound(first, begins.end(), key) - begins.begin());
        ASSERT_EQ(seek_begin_after(lo, hi, key, begin_of), want_upper)
            << "size " << size << " lo " << lo << " key " << key;
        EXPECT_LE(probes, seek_probe_bound(hi - lo));
      }
    }
  }
}

TEST(WindowSeek, EmptyRangeReturnsItsBoundWithoutProbing) {
  for (const std::size_t at : {std::size_t{0}, std::size_t{17}}) {
    std::size_t probes = 0;
    const auto begin_of = [&](std::size_t) {
      ++probes;
      return Tick{0};
    };
    EXPECT_EQ(seek_begin_at_or_after(at, at, 5, begin_of), at);
    EXPECT_EQ(seek_begin_after(at, at, 5, begin_of), at);
    EXPECT_EQ(probes, 0u);
  }
}

TEST(WindowSeek, TailQueriesCostLogOfTheirDistanceNotOfTheWindow) {
  // Distinct begins 0, 1, ..., W-1: the answer for key W-d is d entries
  // back from the tail.
  constexpr std::size_t W = 1000000;
  for (const std::size_t d : {0u, 1u, 3u, 10u, 100u, 5000u}) {
    std::size_t probes = 0;
    const auto begin_of = [&](std::size_t i) {
      ++probes;
      return static_cast<Tick>(i);
    };
    const Tick key = static_cast<Tick>(W - d);
    EXPECT_EQ(seek_begin_at_or_after(0, W, key, begin_of), W - d);
    EXPECT_LE(probes, 2 * static_cast<std::size_t>(std::bit_width(d + 1)) + 1)
        << "distance " << d;
  }
}

// ------------------------------------------- contiguous window compaction

std::vector<std::uint8_t> state_bytes(const Ledger& ledger) {
  snapshot::Writer w;
  ledger.save_state(w);
  return w.take();
}

bool same_transmission(const Transmission& a, const Transmission& b) {
  return a.station == b.station && a.begin == b.begin && a.end == b.end &&
         a.is_control == b.is_control && a.packet == b.packet &&
         a.successful == b.successful && a.decided == b.decided &&
         a.admission == b.admission;
}

template <class A, class B>
bool same_transmissions(const A& a, const B& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    same_transmission);
}

// Drives ledgers the way sim::Engine does: stations with random slot
// lengths, slot ends processed in time order, transmissions registered at
// slot start (so every add's begin is the current time) and feedback
// queried at slot end; prunes pass the minimum current slot start.
class SlotSchedule {
 public:
  explicit SlotSchedule(std::uint64_t seed) : rng_(seed) {
    for (Slot& slot : slots_) slot = {0, 0, false};
  }

  struct Event {
    StationId station;
    Tick s, t;          ///< the slot that just ended
    bool transmitted;   ///< the station transmitted during [s, t)
    Transmission next;  ///< registered at t when next.station is valid
  };

  Event step() {
    std::size_t k = 0;
    for (std::size_t j = 1; j < kStations; ++j)
      if (slots_[j].end < slots_[k].end) k = j;
    Slot& slot = slots_[k];
    const auto st = static_cast<StationId>(k + 1);  // stations are 1-based
    Event ev{st, slot.start, slot.end, slot.transmitting, Transmission{}};
    const Tick len = rng_.range(1, 8) * (kTicksPerUnit / 4);
    slot = {slot.end, slot.end + len, rng_.chance(0.45)};
    if (slot.transmitting) {
      ev.next.station = st;
      ev.next.begin = slot.start;
      ev.next.end = slot.end;
      ev.next.is_control = rng_.chance(0.2);
      ev.next.packet = ++packets_;
    }
    return ev;
  }

  /// The engine's prune horizon: the earliest current slot start.
  Tick horizon() const {
    Tick h = slots_[0].start;
    for (const Slot& slot : slots_) h = std::min(h, slot.start);
    return h;
  }

 private:
  struct Slot {
    Tick start, end;
    bool transmitting;
  };
  static constexpr std::size_t kStations = 6;
  util::Rng rng_;
  Slot slots_[kStations];
  PacketSeq packets_ = 0;
};

// A ledger whose window never compacts: before each prune it is rebuilt
// from its own snapshot, so its buffer starts at offset 0 and the prune
// (fewer than 64 entries at this test's prune cadence) never crosses the
// compaction threshold.
class NeverCompactingLedger {
 public:
  explicit NeverCompactingLedger(bool keep_history)
      : keep_history_(keep_history),
        ledger_(std::make_unique<Ledger>(keep_history)) {}

  Ledger& operator*() { return *ledger_; }
  Ledger* operator->() { return ledger_.get(); }

  void prune_before(Tick horizon) {
    const std::vector<std::uint8_t> bytes = state_bytes(*ledger_);
    ledger_ = std::make_unique<Ledger>(keep_history_);
    snapshot::Reader r(bytes);
    ledger_->load_state(r);
    r.expect_end();
    const std::span<const Transmission> before = ledger_->window();
    ledger_->prune_before(horizon);
    const std::span<const Transmission> after = ledger_->window();
    const std::size_t popped = before.size() - after.size();
    ASSERT_LT(popped, 64u);
    ASSERT_EQ(after.data(), before.data() + popped);  // no compaction
  }

 private:
  bool keep_history_;
  std::unique_ptr<Ledger> ledger_;
};

// One schedule event on the ledger under test and its references: the same
// slot-end feedback (and, for a transmitter, the same success verdict),
// then the same registration. Returns false on the first divergence.
template <class... Others>
::testing::AssertionResult apply_event(const SlotSchedule::Event& ev,
                                       Ledger& ledger, Others&... others) {
  if (ev.s < ev.t) {
    const Feedback fb = ledger.feedback(ev.s, ev.t);
    for (Ledger* other : {&others...})
      if (other->feedback(ev.s, ev.t) != fb)
        return ::testing::AssertionFailure()
               << "feedback of [" << ev.s << "," << ev.t << ") differs";
    if (ev.transmitted) {
      const bool ok = ledger.transmission_successful(ev.station, ev.t);
      for (Ledger* other : {&others...})
        if (other->transmission_successful(ev.station, ev.t) != ok)
          return ::testing::AssertionFailure()
                 << "success of station " << ev.station << " ending at "
                 << ev.t << " differs";
    }
  }
  if (ev.next.station != kInvalidStation) {
    ledger.add(ev.next);
    for (Ledger* other : {&others...}) other->add(ev.next);
  }
  return ::testing::AssertionSuccess();
}

void check_compaction_is_invisible(bool keep_history) {
  SlotSchedule schedule(keep_history ? 91 : 92);
  Ledger ledger(keep_history);
  NeverCompactingLedger reference(keep_history);
  constexpr int kPruneEvery = 8;
  int compactions = 0;
  // Phase 1: prune on the engine's cadence until the window has compacted
  // several times, comparing against the never-compacting reference after
  // every prune.
  for (int event = 1; compactions < 5; ++event) {
    ASSERT_LT(event, 200000) << "the window never compacted";
    ASSERT_TRUE(apply_event(schedule.step(), ledger, *reference));
    if (event % kPruneEvery != 0) continue;
    const Tick horizon = schedule.horizon();
    const std::span<const Transmission> before = ledger.window();
    ledger.prune_before(horizon);
    reference.prune_before(horizon);
    const std::span<const Transmission> after = ledger.window();
    if (after.data() != before.data() + (before.size() - after.size()))
      ++compactions;
    ASSERT_TRUE(same_transmissions(ledger.window(), reference->window()))
        << "window differs after prune at event " << event;
    ASSERT_TRUE(
        same_transmissions(ledger.full_history(), reference->full_history()))
        << "history differs after prune at event " << event;
    ASSERT_EQ(state_bytes(ledger), state_bytes(*reference))
        << "snapshot differs after prune at event " << event;
  }
  if (keep_history) {
    EXPECT_FALSE(ledger.full_history().empty());
  } else {
    EXPECT_TRUE(ledger.full_history().empty());
  }

  // Phase 2: resume a third ledger from the compacted ledger's bytes and
  // drive all three through the next 10k feedback queries.
  Ledger resumed(keep_history);
  {
    const std::vector<std::uint8_t> bytes = state_bytes(ledger);
    snapshot::Reader r(bytes);
    resumed.load_state(r);
    r.expect_end();
  }
  int queries = 0;
  for (int event = 1; queries < 10000; ++event) {
    const SlotSchedule::Event ev = schedule.step();
    queries += ev.s < ev.t ? 1 : 0;
    ASSERT_TRUE(apply_event(ev, ledger, *reference, resumed));
    if (event % kPruneEvery != 0) continue;
    const Tick horizon = schedule.horizon();
    ledger.prune_before(horizon);
    reference.prune_before(horizon);
    resumed.prune_before(horizon);
  }
  EXPECT_TRUE(same_transmissions(ledger.window(), resumed.window()));
  EXPECT_TRUE(
      same_transmissions(ledger.full_history(), resumed.full_history()));
  EXPECT_EQ(state_bytes(ledger), state_bytes(*reference));
  EXPECT_EQ(state_bytes(ledger), state_bytes(resumed));
}

TEST(LedgerCompaction, InvisibleWithoutHistory) {
  check_compaction_is_invisible(/*keep_history=*/false);
}

TEST(LedgerCompaction, InvisibleWithHistory) {
  check_compaction_is_invisible(/*keep_history=*/true);
}

}  // namespace
}  // namespace asyncmac::channel
