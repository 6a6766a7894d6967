// Tests for the arrival-driven live channel (live/channel.h): open
// transmissions make overlapping slots busy but never ack, and once all
// intervals are closed the answers and cumulative stats are identical to
// the simulation ledger fed the same schedule — the stats-parity half of
// the sim-vs-live differential. A second differential drives the channel
// in the daemon's wave order (close, query, begin, prune) and checks
// every answer, mid-run and with entries still open, against the
// brute-force verify::ReferenceChannel.
#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "channel/ledger.h"
#include "channel/transmission.h"
#include "live/channel.h"
#include "util/rng.h"
#include "verify/reference_channel.h"

namespace asyncmac::live {
namespace {

constexpr Tick U = kTicksPerUnit;

TEST(LiveChannel, OpenTransmissionIsBusyNeverAck) {
  LiveChannel ch;
  ch.begin_tx(1, 10, /*is_control=*/false, /*packet=*/1);
  EXPECT_TRUE(ch.has_open(1));
  // Any slot overlapping [10, inf) is busy; nothing has ended, so no ack.
  EXPECT_EQ(ch.feedback(0, 10), Feedback::kSilence);  // touching, no overlap
  EXPECT_EQ(ch.feedback(5, 15), Feedback::kBusy);
  EXPECT_EQ(ch.feedback(100, 200), Feedback::kBusy);
  EXPECT_EQ(ch.stats().transmissions, 1u);
  EXPECT_EQ(ch.stats().successful, 0u);
  EXPECT_EQ(ch.stats().collided, 0u);
}

TEST(LiveChannel, LoneClosedTransmissionAcks) {
  LiveChannel ch;
  ch.begin_tx(1, 10, false, 1);
  EXPECT_TRUE(ch.close_tx(1, 20));
  EXPECT_FALSE(ch.has_open(1));
  // Ack iff the successful end lands in (s, t].
  EXPECT_EQ(ch.feedback(10, 20), Feedback::kAck);
  EXPECT_EQ(ch.feedback(15, 25), Feedback::kAck);
  EXPECT_EQ(ch.feedback(20, 30), Feedback::kSilence);  // end not in (20, 30]
  EXPECT_EQ(ch.feedback(0, 10), Feedback::kSilence);
  EXPECT_EQ(ch.stats().successful, 1u);
  EXPECT_EQ(ch.stats().successful_packets, 1u);
  EXPECT_EQ(ch.stats().successful_packet_time, 10);
}

TEST(LiveChannel, OverlapCollidesBothWays) {
  LiveChannel ch;
  ch.begin_tx(1, 0, false, 1);
  ch.begin_tx(2, 5, false, 2);
  // Station 1 closes first at 10: overlaps [5, open) -> collided.
  EXPECT_FALSE(ch.close_tx(1, 10));
  // Station 2 closes at 12: overlaps the closed [0, 10) -> collided.
  EXPECT_FALSE(ch.close_tx(2, 12));
  EXPECT_EQ(ch.stats().collided, 2u);
  EXPECT_EQ(ch.stats().successful, 0u);
  EXPECT_EQ(ch.feedback(0, 12), Feedback::kBusy);
}

TEST(LiveChannel, TouchingEndpointsDoNotCollide) {
  LiveChannel ch;
  ch.begin_tx(1, 0, false, 1);
  EXPECT_TRUE(ch.close_tx(1, 10));
  ch.begin_tx(2, 10, false, 2);  // back-to-back, no overlap
  EXPECT_TRUE(ch.close_tx(2, 20));
  EXPECT_EQ(ch.stats().successful, 2u);
  EXPECT_EQ(ch.stats().collided, 0u);
}

TEST(LiveChannel, ControlTransmissionsCountSeparately) {
  LiveChannel ch;
  ch.begin_tx(1, 0, /*is_control=*/true, 0);
  EXPECT_TRUE(ch.close_tx(1, 5));
  EXPECT_EQ(ch.stats().transmissions, 1u);
  EXPECT_EQ(ch.stats().control_transmissions, 1u);
  EXPECT_EQ(ch.stats().successful, 1u);
  EXPECT_EQ(ch.stats().successful_packets, 0u);
  EXPECT_EQ(ch.stats().successful_control_time, 5);
  EXPECT_EQ(ch.stats().successful_packet_time, 0);
  // A successful control transmission still acks its slot.
  EXPECT_EQ(ch.feedback(0, 5), Feedback::kAck);
}

TEST(LiveChannel, PrunePreservesStatsAndKeepsOpenEntries) {
  LiveChannel ch;
  ch.begin_tx(1, 0, false, 1);
  EXPECT_TRUE(ch.close_tx(1, 10));
  ch.begin_tx(2, 20, false, 2);  // stays open across the prune
  ch.prune_before(15);
  EXPECT_EQ(ch.window_size(), 1u);  // closed [0,10) dropped, open kept
  EXPECT_TRUE(ch.has_open(2));
  EXPECT_EQ(ch.stats().successful, 1u);
  EXPECT_EQ(ch.stats().transmissions, 2u);
  // Later slots still see the open transmission.
  EXPECT_EQ(ch.feedback(25, 30), Feedback::kBusy);
}

// ----------------------------------------------------- ledger differential

struct ScheduledTx {
  StationId station;
  Tick begin;
  Tick end;
  bool is_control;
};

/// Seeded random schedule: per station a chain of non-overlapping slots
/// with random lengths and idle gaps, transmitting with probability 1/2.
/// Cross-station overlap is unconstrained — exactly the regime where
/// success/collision decisions are interesting.
std::vector<ScheduledTx> random_schedule(std::uint64_t seed, int stations,
                                         int slots_per_station) {
  util::Rng rng(seed);
  std::vector<ScheduledTx> txs;
  for (StationId s = 1; s <= static_cast<StationId>(stations); ++s) {
    Tick t = static_cast<Tick>(rng.below(5)) * U;
    for (int k = 0; k < slots_per_station; ++k) {
      const Tick len = (1 + static_cast<Tick>(rng.below(4))) * U;
      if (rng.below(2) == 0)
        txs.push_back({s, t, t + len, rng.below(8) == 0});
      t += len + static_cast<Tick>(rng.below(3)) * U;
    }
  }
  std::sort(txs.begin(), txs.end(),
            [](const ScheduledTx& a, const ScheduledTx& b) {
              return a.begin < b.begin ||
                     (a.begin == b.begin && a.station < b.station);
            });
  return txs;
}

TEST(LiveChannelDifferential, MatchesLedgerOnRandomSchedules) {
  for (const std::uint64_t seed : {1ULL, 7ULL, 42ULL, 1234ULL}) {
    const auto txs = random_schedule(seed, 5, 40);
    ASSERT_FALSE(txs.empty());

    // Ledger: full intervals in begin order (the engine's add pattern).
    channel::Ledger ledger;
    Tick latest_end = 0;
    for (const auto& tx : txs) {
      channel::Transmission t;
      t.station = tx.station;
      t.begin = tx.begin;
      t.end = tx.end;
      t.is_control = tx.is_control;
      t.packet = tx.is_control ? 0 : 1;
      ledger.add(t);
      latest_end = std::max(latest_end, tx.end);
    }

    // LiveChannel: begins in begin order, each closed once every earlier
    // begin is registered (the daemon's wave ordering). Interleave by
    // merging: before registering a begin at time b, close everything
    // ending at or before b; drain the rest at the end.
    LiveChannel live;
    std::vector<ScheduledTx> open;
    auto close_until = [&](Tick t) {
      std::sort(open.begin(), open.end(),
                [](const ScheduledTx& a, const ScheduledTx& b) {
                  return a.end < b.end;
                });
      while (!open.empty() && open.front().end <= t) {
        live.close_tx(open.front().station, open.front().end);
        open.erase(open.begin());
      }
    };
    for (const auto& tx : txs) {
      close_until(tx.begin);
      live.begin_tx(tx.station, tx.begin, tx.is_control,
                    tx.is_control ? 0 : 1);
      open.push_back(tx);
    }
    close_until(latest_end);
    ASSERT_TRUE(open.empty());

    // Force the ledger to finalize everything so stats are comparable.
    ledger.finalize_until(latest_end);
    EXPECT_EQ(live.stats().transmissions, ledger.stats().transmissions);
    EXPECT_EQ(live.stats().successful, ledger.stats().successful);
    EXPECT_EQ(live.stats().collided, ledger.stats().collided);
    EXPECT_EQ(live.stats().control_transmissions,
              ledger.stats().control_transmissions);
    EXPECT_EQ(live.stats().successful_packets,
              ledger.stats().successful_packets);
    EXPECT_EQ(live.stats().successful_packet_time,
              ledger.stats().successful_packet_time);
    EXPECT_EQ(live.stats().successful_control_time,
              ledger.stats().successful_control_time);

    // Feedback parity over a dense sweep of query windows, including
    // ones straddling interval boundaries.
    util::Rng qrng(seed ^ 0x9e3779b97f4a7c15ULL);
    for (int q = 0; q < 500; ++q) {
      const Tick s = static_cast<Tick>(
          qrng.below(static_cast<std::uint64_t>(latest_end)));
      const Tick t =
          s + 1 +
          static_cast<Tick>(qrng.below(static_cast<std::uint64_t>(4 * U)));
      EXPECT_EQ(live.feedback(s, t), ledger.feedback(s, t))
          << "seed=" << seed << " window=[" << s << "," << t << ")";
    }
  }
}

// ------------------------------------------- wave-order reference check

/// One slot of a station's contiguous slot chain.
struct ChainSlot {
  StationId station;
  Tick begin;
  Tick end;
  bool transmit;
  bool is_control;
};

/// Seeded contiguous slot chains, one per station, the shape a live run
/// produces: each slot begins where the station's previous one ended.
/// Most slots end on a half-unit grid point at most R*U = 4 U away, so
/// ends and begins of different stations coincide and touch; one in 16
/// ends an arbitrary tick count later (an arrival-clocked end over UDP),
/// and the next grid slot snaps back. One transmitting slot of station 1
/// runs 40 U — far beyond R — as a SlotEnd held back by drift would.
std::vector<ChainSlot> drifting_chains(std::uint64_t seed, int stations,
                                       int slots_per_station) {
  constexpr Tick kGrid = U / 2;
  util::Rng rng(seed);
  std::vector<ChainSlot> slots;
  for (StationId st = 1; st <= static_cast<StationId>(stations); ++st) {
    Tick t = static_cast<Tick>(rng.below(4)) * kGrid;
    for (int k = 0; k < slots_per_station; ++k) {
      const bool drifted = st == 1 && k == slots_per_station / 3;
      Tick end = (t / kGrid + 1 + static_cast<Tick>(rng.below(7))) * kGrid;
      if (rng.below(16) == 0)
        end = t + 1 +
              static_cast<Tick>(rng.below(static_cast<std::uint64_t>(4 * U)));
      if (drifted) end = t + 40 * U;
      const bool transmit = drifted || rng.chance(0.45);
      slots.push_back({st, t, end, transmit,
                       transmit && !drifted && rng.below(8) == 0});
      t = end;
    }
  }
  return slots;
}

/// Drive a LiveChannel through `slots` in the daemon's wave order and
/// check every answer against a ReferenceChannel holding the whole
/// schedule, and the running stats against a Ledger fed the same
/// intervals. At each boundary tick t: (A) close every transmitting slot
/// ending at t, (B) query each slot ending at t plus random slots inside
/// the unpruned past, check success verdicts and has_open for every
/// station, (C) begin every slot starting at t; every few ticks prune at
/// the minimum current slot begin, as Daemon::maybe_prune does.
void check_wave_order(const std::vector<ChainSlot>& slots,
                      channel::RestrainedSpec spec, std::uint64_t seed) {
  SCOPED_TRACE(::testing::Message() << "seed=" << seed << " k=" << spec.k
                                    << " jam=" << spec.jam);
  verify::ReferenceChannel ref;
  ref.set_restrained(spec);
  std::map<Tick, std::vector<const ChainSlot*>> begins, ends;
  for (const ChainSlot& sl : slots) {
    begins[sl.begin].push_back(&sl);
    ends[sl.end].push_back(&sl);
    if (!sl.transmit) continue;
    channel::Transmission t;
    t.station = sl.station;
    t.begin = sl.begin;
    t.end = sl.end;
    t.is_control = sl.is_control;
    ref.add(t);
  }
  ref.cache_success();
  std::vector<Tick> ticks;
  for (const auto& [t, _] : begins) ticks.push_back(t);
  for (const auto& [t, _] : ends) ticks.push_back(t);
  std::sort(ticks.begin(), ticks.end());
  ticks.erase(std::unique(ticks.begin(), ticks.end()), ticks.end());
  auto by_station = [](const ChainSlot* a, const ChainSlot* b) {
    return a->station < b->station;
  };

  LiveChannel live(spec);
  channel::Ledger ledger(/*keep_history=*/false, spec);
  std::map<StationId, const ChainSlot*> current;  // each station's slot
  util::Rng rng(seed ^ 0x5bd1e995ULL);
  Tick floor = 0;  // last prune horizon: no query may reach below it
  int prunes = 0;
  for (const Tick t : ticks) {
    auto ending = ends[t];
    std::sort(ending.begin(), ending.end(), by_station);
    // Phase A: close.
    for (const ChainSlot* sl : ending) {
      if (!sl->transmit) continue;
      ASSERT_EQ(live.close_tx(sl->station, t),
                ref.successful(sl->station, sl->begin, t))
          << "close station " << sl->station << " at " << t;
    }
    // Phase B: settle the ended slots, then probe around.
    for (const ChainSlot* sl : ending) {
      ASSERT_EQ(live.feedback(sl->begin, t), ref.feedback(sl->begin, t))
          << "slot [" << sl->begin << "," << t << ")";
      if (sl->transmit) {
        ASSERT_EQ(live.transmission_successful(sl->station, t),
                  ref.successful(sl->station, sl->begin, t));
      }
    }
    for (int q = 0; q < 3 && t > floor; ++q) {
      const Tick lo = std::max(floor, t - 6 * U);
      const Tick s =
          lo + static_cast<Tick>(rng.below(static_cast<std::uint64_t>(t - lo)));
      const Tick e = s + 1 +
                     static_cast<Tick>(
                         rng.below(static_cast<std::uint64_t>(t - s)));
      ASSERT_EQ(live.feedback(s, e), ref.feedback(s, e))
          << "probe [" << s << "," << e << ")";
    }
    for (const auto& [st, sl] : current) {
      const bool open = sl->transmit && sl->end > t;
      ASSERT_EQ(live.has_open(st), open) << "station " << st << " at " << t;
    }
    // Phase C: commit the slots beginning at t.
    auto starting = begins[t];
    std::sort(starting.begin(), starting.end(), by_station);
    for (const ChainSlot* sl : starting) {
      current[sl->station] = sl;
      if (!sl->transmit) continue;
      live.begin_tx(sl->station, t, sl->is_control, sl->is_control ? 0 : 1);
      channel::Transmission tx;
      tx.station = sl->station;
      tx.begin = sl->begin;
      tx.end = sl->end;
      tx.is_control = sl->is_control;
      tx.packet = sl->is_control ? 0 : 1;
      ledger.add(tx);
      ASSERT_TRUE(live.has_open(sl->station));
    }
    ledger.finalize_until(t);
    const channel::LedgerStats& a = live.stats();
    const channel::LedgerStats& b = ledger.stats();
    ASSERT_EQ(a.transmissions, b.transmissions) << "at " << t;
    ASSERT_EQ(a.successful, b.successful) << "at " << t;
    ASSERT_EQ(a.collided, b.collided) << "at " << t;
    ASSERT_EQ(a.control_transmissions, b.control_transmissions);
    ASSERT_EQ(a.successful_packets, b.successful_packets);
    ASSERT_EQ(a.successful_packet_time, b.successful_packet_time);
    ASSERT_EQ(a.successful_control_time, b.successful_control_time);
    ASSERT_EQ(a.rejected, b.rejected) << "at " << t;
    ASSERT_EQ(a.jammed, b.jammed) << "at " << t;
    if (rng.below(5) == 0) {
      Tick horizon = kTickInfinity;
      for (const auto& [st, sl] : current)
        horizon = std::min(horizon, sl->begin);
      live.prune_before(horizon);
      ledger.prune_before(horizon);
      floor = std::max(floor, horizon);
      ++prunes;
    }
  }
  EXPECT_GT(prunes, 50);
  EXPECT_GT(live.stats().successful, 0u);
  EXPECT_GT(live.stats().collided, 0u);
}

TEST(LiveChannelDifferential, MatchesReferenceInWaveOrderAcrossPrunes) {
  const channel::RestrainedSpec specs[] = {
      {}, {1, /*jam=*/true}, {2, /*jam=*/false}};
  for (const std::uint64_t seed : {3ULL, 11ULL, 2024ULL}) {
    const auto slots = drifting_chains(seed, 5, 150);
    for (const channel::RestrainedSpec& spec : specs) {
      check_wave_order(slots, spec, seed);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

}  // namespace
}  // namespace asyncmac::live
