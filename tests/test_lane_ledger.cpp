// Differential test of channel::LaneLedger against K independent scalar
// channel::Ledger objects. sim::CohortEngine only lane-izes the
// collision-free CA-ARRoW automaton, so its runs never reach the lane
// ledger's overlap, jam and reject paths; here random begin-ordered
// streams with overlapping transmissions feed every lane directly. After
// every call each lane must agree with its scalar twin on feedback,
// stats(), transmission_successful and the exact save_state bytes, and a
// replay of the same stream must leave the same channel.* telemetry
// totals. The matrix covers the unrestrained channel, 1:jam, 2:reject
// and 1:reject, keep_history on and off, and feedback_all over all lanes
// and over random lane subsets.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "channel/lane_ledger.h"
#include "channel/ledger.h"
#include "snapshot/io.h"
#include "telemetry/registry.h"
#include "util/rng.h"

namespace asyncmac::channel {
namespace {

constexpr Tick U = kTicksPerUnit;
constexpr std::uint32_t kLanes = 4;
constexpr std::uint32_t kStations = 5;

struct Op {
  enum Kind { kAdd, kQuery, kPrune, kFlush };
  Kind kind = kAdd;
  std::uint32_t lane = 0;  ///< kAdd, kFlush
  Transmission tx;         ///< kAdd
  Tick s = 0, t = 0;       ///< kQuery
  std::vector<std::uint32_t> active;  ///< kQuery, ascending
  /// kQuery over all lanes: consult the all_quiet / all_memo gates first
  /// and, when one holds, apply its batched counters `repeat` times in
  /// place of feedback_all (the cohort engine's quiet-run batcher).
  bool gates = false;
  std::uint64_t repeat = 1;
  Tick horizon = 0;  ///< kPrune (every lane)
};

struct Config {
  RestrainedSpec restrained;
  bool keep_history = false;
  bool subsets = false;  ///< feedback_all over random lane subsets too
};

/// A random call stream that keeps the ledger contract: begins are
/// non-decreasing per lane, one station's transmissions never overlap,
/// every query [s, t) has t <= now (all begins < t already added), and
/// prunes use a safe horizon — no transmission ending after the horizon
/// began before it, and later queries start at or after it.
std::vector<Op> random_stream(std::uint64_t seed, const Config& cfg,
                              int steps) {
  util::Rng rng(seed);
  std::vector<Op> ops;
  Tick now = 0;
  Tick floor = 0;  ///< last prune horizon: queries start at or after it
  std::array<std::array<Tick, kStations + 1>, kLanes> busy_until{};
  // Every transmission still able to end after a future horizon.
  std::vector<std::pair<Tick, Tick>> spans;  // (begin, end), all lanes
  PacketSeq seq = 1;
  Op last_query;
  bool have_query = false;
  for (int step = 0; step < steps; ++step) {
    const std::int64_t pick = rng.range(0, 99);
    if (pick < 40) {
      // A burst of transmissions at `now`: 0-3 per lane, so lanes differ
      // and overlap within themselves.
      for (std::uint32_t k = 0; k < kLanes; ++k) {
        const std::int64_t count = rng.range(0, 3);
        for (std::int64_t c = 0; c < count; ++c) {
          const auto st = static_cast<StationId>(rng.range(1, kStations));
          if (busy_until[k][st] > now) continue;
          Op op;
          op.kind = Op::kAdd;
          op.lane = k;
          op.tx.station = st;
          op.tx.begin = now;
          op.tx.end = now + rng.range(1, 9) * (U / 2);
          op.tx.is_control = rng.chance(0.2);
          op.tx.packet = op.tx.is_control ? 0 : seq++;
          busy_until[k][st] = op.tx.end;
          spans.emplace_back(op.tx.begin, op.tx.end);
          ops.push_back(op);
        }
      }
    } else if (pick < 55) {
      // Advance the clock; now and then far enough for every lane to go
      // quiet (the all-quiet gate and the empty-window fast path).
      now += rng.chance(0.15) ? rng.range(6, 12) * U : rng.range(1, 3) * (U / 2);
    } else if (pick < 90) {
      Op op;
      if (have_query && last_query.s >= floor && rng.chance(0.3)) {
        op = last_query;  // a repeat: the memo-replay paths
      } else {
        op.kind = Op::kQuery;
        op.t = std::max<Tick>(now - rng.range(0, 2) * (U / 2), floor + 1);
        if (op.t > now) continue;
        op.s = std::max<Tick>(op.t - rng.range(1, 6) * (U / 2), floor);
        op.active.clear();
        if (cfg.subsets && rng.chance(0.5)) {
          for (std::uint32_t k = 0; k < kLanes; ++k)
            if (rng.chance(0.5)) op.active.push_back(k);
          if (op.active.empty())
            op.active.push_back(
                static_cast<std::uint32_t>(rng.range(0, kLanes - 1)));
        } else {
          for (std::uint32_t k = 0; k < kLanes; ++k) op.active.push_back(k);
        }
      }
      op.gates = op.active.size() == kLanes && rng.chance(0.5);
      op.repeat = op.gates ? static_cast<std::uint64_t>(rng.range(1, 3)) : 1;
      last_query = op;
      have_query = true;
      ops.push_back(op);
    } else if (pick < 97) {
      // Safe horizon: lower the candidate until no transmission ending
      // after it began before it.
      Tick h = std::max<Tick>(floor, now - rng.range(0, 8) * (U / 2));
      for (bool moved = true; moved;) {
        moved = false;
        for (const auto& [b, e] : spans)
          if (e > h && b < h) {
            h = b;
            moved = true;
          }
      }
      h = std::max(h, floor);
      std::erase_if(spans, [&](const auto& sp) { return sp.second <= h; });
      floor = h;
      Op op;
      op.kind = Op::kPrune;
      op.horizon = h;
      ops.push_back(op);
    } else {
      Op op;
      op.kind = Op::kFlush;
      op.lane = static_cast<std::uint32_t>(rng.range(0, kLanes - 1));
      ops.push_back(op);
    }
  }
  return ops;
}

std::vector<std::uint8_t> lane_bytes(LaneLedger& lanes, std::uint32_t k) {
  snapshot::Writer w;
  lanes.save_state(k, w);
  return w.take();
}

std::vector<std::uint8_t> scalar_bytes(const Ledger& ledger) {
  snapshot::Writer w;
  ledger.save_state(w);
  return w.take();
}

void expect_same_stats(const LedgerStats& a, const LedgerStats& b,
                       const std::string& where) {
  EXPECT_EQ(a.transmissions, b.transmissions) << where;
  EXPECT_EQ(a.successful, b.successful) << where;
  EXPECT_EQ(a.collided, b.collided) << where;
  EXPECT_EQ(a.control_transmissions, b.control_transmissions) << where;
  EXPECT_EQ(a.successful_packets, b.successful_packets) << where;
  EXPECT_EQ(a.successful_packet_time, b.successful_packet_time) << where;
  EXPECT_EQ(a.successful_control_time, b.successful_control_time) << where;
  EXPECT_EQ(a.rejected, b.rejected) << where;
  EXPECT_EQ(a.jammed, b.jammed) << where;
}

/// Apply one op to the lane ledger; returns the per-lane feedback of a
/// query (kSilence for lanes outside `active`).
std::array<Feedback, kLanes> apply_lanes(LaneLedger& lanes, const Op& op) {
  std::array<Feedback, kLanes> fb{};
  fb.fill(Feedback::kSilence);
  switch (op.kind) {
    case Op::kAdd:
      lanes.add(op.lane, op.tx);
      break;
    case Op::kQuery:
      if (op.gates && lanes.all_quiet(op.s)) {
        lanes.apply_all_quiet(op.repeat);
      } else if (op.gates && lanes.all_memo(op.s, op.t)) {
        for (std::uint32_t k = 0; k < kLanes; ++k)
          fb[k] = static_cast<Feedback>(lanes.memo_feedback(k));
        lanes.apply_all_memo(op.repeat);
      } else {
        for (std::uint64_t r = 0; r < op.repeat; ++r)
          lanes.feedback_all(op.s, op.t, op.active, fb.data());
      }
      break;
    case Op::kPrune:
      for (std::uint32_t k = 0; k < kLanes; ++k)
        lanes.prune_before(k, op.horizon);
      break;
    case Op::kFlush:
      lanes.flush_telemetry(op.lane);
      break;
  }
  return fb;
}

std::array<Feedback, kLanes> apply_scalar(
    std::vector<std::unique_ptr<Ledger>>& ledgers, const Op& op) {
  std::array<Feedback, kLanes> fb{};
  fb.fill(Feedback::kSilence);
  switch (op.kind) {
    case Op::kAdd:
      ledgers[op.lane]->add(op.tx);
      break;
    case Op::kQuery:
      for (const std::uint32_t k : op.active)
        for (std::uint64_t r = 0; r < op.repeat; ++r)
          fb[k] = ledgers[k]->feedback(op.s, op.t);
      break;
    case Op::kPrune:
      for (auto& l : ledgers) l->prune_before(op.horizon);
      break;
    case Op::kFlush:
      ledgers[op.lane]->flush_telemetry();
      break;
  }
  return fb;
}

std::vector<std::unique_ptr<Ledger>> scalar_ledgers(const Config& cfg) {
  std::vector<std::unique_ptr<Ledger>> out;
  for (std::uint32_t k = 0; k < kLanes; ++k)
    out.push_back(std::make_unique<Ledger>(cfg.keep_history, cfg.restrained));
  return out;
}

/// Runs `ops` through a LaneLedger and K scalar Ledgers side by side,
/// comparing after every call; adds the scalar outcome tallies to `seen`.
void compare_stream(const Config& cfg, const std::vector<Op>& ops,
                    const std::string& label, LedgerStats& seen) {
  LaneLedger lanes(kLanes, cfg.keep_history, cfg.restrained);
  auto ledgers = scalar_ledgers(cfg);
  // Every (station, end) added per lane, for the ownership checks.
  std::array<std::vector<std::pair<StationId, Tick>>, kLanes> added;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    const std::string where = label + " op " + std::to_string(i);
    const auto got = apply_lanes(lanes, op);
    const auto want = apply_scalar(ledgers, op);
    if (op.kind == Op::kAdd)
      added[op.lane].emplace_back(op.tx.station, op.tx.end);
    if (op.kind == Op::kQuery) {
      for (const std::uint32_t k : op.active) {
        EXPECT_EQ(got[k], want[k]) << where << " lane " << k;
        // The cohort engine's ack-ownership check: asked right after the
        // query, of a transmission ending exactly at t.
        for (const auto& [st, end] : added[k]) {
          if (end != op.t) continue;
          EXPECT_EQ(lanes.transmission_successful(k, st, end),
                    ledgers[k]->transmission_successful(st, end))
              << where << " lane " << k << " station " << st;
        }
      }
    }
    for (std::uint32_t k = 0; k < kLanes; ++k) {
      expect_same_stats(lanes.stats(k), ledgers[k]->stats(),
                        where + " lane " + std::to_string(k));
      ASSERT_EQ(lane_bytes(lanes, k), scalar_bytes(*ledgers[k]))
          << where << " lane " << k;
    }
  }
  for (const auto& l : ledgers) {
    seen.successful += l->stats().successful;
    seen.collided += l->stats().collided;
    seen.jammed += l->stats().jammed;
    seen.rejected += l->stats().rejected;
  }
}

/// channel.* totals after running `ops` through `run` and destroying its
/// ledgers (destruction flushes the batched deltas).
template <class Run>
std::vector<std::uint64_t> telemetry_totals(Run&& run) {
  auto& reg = telemetry::Registry::global();
  reg.reset_values();
  run();
  std::vector<std::uint64_t> out;
  for (const char* name :
       {"channel.transmissions", "channel.feedback_queries",
        "channel.feedback_scanned", "channel.feedback_fast_silence",
        "channel.memo_hits", "channel.memo_misses", "channel.prunes",
        "channel.pruned_entries"})
    out.push_back(reg.counter(name).value());
  out.push_back(reg.gauge("channel.window_peak").value());
  return out;
}

void compare_telemetry(const Config& cfg, const std::vector<Op>& ops,
                       const std::string& label) {
  telemetry::set_enabled(true);
  const auto lane_totals = telemetry_totals([&] {
    LaneLedger lanes(kLanes, cfg.keep_history, cfg.restrained);
    for (const Op& op : ops) apply_lanes(lanes, op);
  });
  const auto scalar_totals = telemetry_totals([&] {
    auto ledgers = scalar_ledgers(cfg);
    for (const Op& op : ops) apply_scalar(ledgers, op);
  });
  telemetry::set_enabled(false);
  telemetry::Registry::global().reset_values();
  EXPECT_EQ(lane_totals, scalar_totals) << label;
  // The stream must actually reach the paths it is meant to cover.
  EXPECT_GT(scalar_totals[0], 0u) << label;  // adds
  EXPECT_GT(scalar_totals[3], 0u) << label;  // fast silence
  EXPECT_GT(scalar_totals[4], 0u) << label;  // memo hits
  EXPECT_GT(scalar_totals[5], 0u) << label;  // memo misses (scans)
}

void run_matrix_cell(const Config& cfg) {
  const std::string label =
      "k=" + std::to_string(cfg.restrained.k) +
      " jam=" + std::to_string(cfg.restrained.jam) +
      " history=" + std::to_string(cfg.keep_history) +
      " subsets=" + std::to_string(cfg.subsets);
  LedgerStats seen;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const auto ops = random_stream(seed * 7919 + cfg.restrained.k, cfg, 700);
    compare_stream(cfg, ops, label + " seed " + std::to_string(seed), seen);
    compare_telemetry(cfg, ops, label + " seed " + std::to_string(seed));
  }
  // The streams must reach every outcome the configuration allows.
  EXPECT_GT(seen.successful, 0u) << label;
  EXPECT_GT(seen.collided, 0u) << label;
  if (cfg.restrained.enabled()) {
    EXPECT_GT(cfg.restrained.jam ? seen.jammed : seen.rejected, 0u) << label;
  }
}

void run_matrix(RestrainedSpec spec) {
  for (const bool keep_history : {false, true})
    for (const bool subsets : {false, true})
      run_matrix_cell(Config{spec, keep_history, subsets});
}

TEST(LaneLedgerDifferential, UnrestrainedMatchesScalarLedgers) {
  run_matrix(RestrainedSpec{});
}

TEST(LaneLedgerDifferential, JamOneMatchesScalarLedgers) {
  run_matrix(RestrainedSpec{1, /*jam=*/true});
}

TEST(LaneLedgerDifferential, RejectTwoMatchesScalarLedgers) {
  run_matrix(RestrainedSpec{2, /*jam=*/false});
}

// With k = 1 a rejected transmission can start inside an admitted one
// that nothing else overlaps, so skipping rejected entries in the
// forward overlap search is observable only here.
TEST(LaneLedgerDifferential, RejectOneMatchesScalarLedgers) {
  run_matrix(RestrainedSpec{1, /*jam=*/false});
}

}  // namespace
}  // namespace asyncmac::channel
