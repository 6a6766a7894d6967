// bench_ledger — microbenchmark of the channel ledger hot path.
//
// The engine calls Ledger::feedback once per slot end, so its cost is the
// per-slot cost of the whole simulator; the live daemon calls
// live::LiveChannel::feedback once per settled slot. A query that the
// ledger's O(1) fast paths and repeat-query memo cannot answer — and every
// LiveChannel query, which has no memo — seeks the begin-sorted window
// from its tail (channel/window_seek.h) and scans the slot's neighborhood:
// O(log d + neighborhood) for an entry d places from the tail, flat in the
// window size W for near-"now" queries.
//
// The trajectory times memo-missing Ledger queries at the window tail at
// W = 1e2 / 1e4 / 1e6 (consecutive queries alternate between two slots,
// so every one runs the seek-and-scan tail; a repeated identical query
// would only time the memo replay), and LiveChannel queries of the same
// shape at W = 1e2 / 1e4 with open entries at the tail, as a live run has.
// Each repeat times every window size once, round-robin, so host noise
// falls on all sizes alike; BENCH_ledger.json records kRepeats and best /
// median / max ns per query, and the ratio of the largest to the smallest
// window's median flags window-size-dependent cost (a binary seek reads
// ~3 at 1e6/1e2, a front-to-back scan ~1e4 — or ~1e2 at 1e4/1e2).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <vector>

#include "channel/ledger.h"
#include "live/channel.h"
#include "telemetry/registry.h"
#include "util/types.h"

namespace {

using namespace asyncmac;
using channel::Ledger;
using channel::Transmission;

constexpr Tick U = kTicksPerUnit;

Transmission tx(StationId station, Tick begin, Tick end) {
  Transmission t;
  t.station = station;
  t.begin = begin;
  t.end = end;
  return t;
}

// A window of `size` finalized transmissions: 4 stations taking turns with
// unit slots, packets back to back (the steady-state shape of a saturated
// stability run). Returns the ledger and the time just past the last end.
std::unique_ptr<Ledger> build_window(std::size_t size, Tick* now_out) {
  auto ledger = std::make_unique<Ledger>();
  Tick now = 0;
  for (std::size_t i = 0; i < size; ++i) {
    const StationId s = static_cast<StationId>(1 + (i % 4));
    ledger->add(tx(s, now, now + U));
    now += U;
  }
  ledger->finalize_until(now);
  *now_out = now;
  return ledger;
}

// Two slots at the live end of the window — the engine's access pattern
// (slots never reference the distant past). Alternating between them
// defeats the repeat-query memo, so every query seeks and scans.
Feedback tail_query(Ledger& ledger, Tick now, std::uint64_t i) {
  const Tick back = (i & 1) ? 2 * U : U;
  return ledger.feedback(now - back, now - back + U);
}

void BM_FeedbackAtWindowSize(benchmark::State& state) {
  Tick now = 0;
  const auto ledger =
      build_window(static_cast<std::size_t>(state.range(0)), &now);
  std::uint64_t i = 0;
  for (auto _ : state) {
    const Feedback fb = tail_query(*ledger, now, i++);
    benchmark::DoNotOptimize(fb);
  }
  state.counters["window"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_FeedbackAtWindowSize)->Arg(100)->Arg(10000)->Arg(1000000);

void BM_SteadyStateAddFeedbackPrune(benchmark::State& state) {
  // The engine's full per-slot ledger sequence at a bounded window.
  Ledger ledger;
  Tick now = 0;
  for (auto _ : state) {
    ledger.add(tx(1 + static_cast<StationId>(now / U) % 4, now, now + U));
    const Feedback fb = ledger.feedback(now, now + U);
    benchmark::DoNotOptimize(fb);
    now += U;
    if ((now / U) % 4096 == 0) ledger.prune_before(now - 8 * U);
  }
}
BENCHMARK(BM_SteadyStateAddFeedbackPrune);

constexpr StationId kOpenAtTail = 4;

// A LiveChannel window shaped like build_window's — `size` closed unit
// slots of 4 stations taking turns, back to back up to *now_out — plus one
// open transmission for each of kOpenAtTail more stations, begun half a
// unit before now: their current slots, whose SlotEnds have not arrived.
std::unique_ptr<live::LiveChannel> build_live_window(std::size_t size,
                                                     Tick* now_out) {
  auto ch = std::make_unique<live::LiveChannel>();
  Tick now = 0;
  for (std::size_t i = 0; i < size; ++i) {
    const StationId s = static_cast<StationId>(1 + (i % 4));
    ch->begin_tx(s, now, /*is_control=*/false, /*packet=*/i);
    ch->close_tx(s, now + U);
    now += U;
  }
  for (StationId s = 5; s < 5 + kOpenAtTail; ++s)
    ch->begin_tx(s, now - U / 2, /*is_control=*/false, /*packet=*/0);
  *now_out = now;
  return ch;
}

// The LiveChannel analogue of tail_query (it has no memo to defeat; the
// alternation keeps the two query shapes identical across the benches).
Feedback live_tail_query(const live::LiveChannel& ch, Tick now,
                         std::uint64_t i) {
  const Tick back = (i & 1) ? 2 * U : U;
  return ch.feedback(now - back, now - back + U);
}

constexpr int kRepeats = 15;
constexpr std::uint64_t kQueriesPerRepeat = 200000;

struct Spread {
  double best, median, max;
};

Spread spread_of(std::vector<double> ns) {
  std::sort(ns.begin(), ns.end());
  return {ns.front(), ns[ns.size() / 2], ns.back()};
}

// ns per query over one timed batch of kQueriesPerRepeat calls.
template <class Query>
double time_batch(Query&& query) {
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < kQueriesPerRepeat; ++i)
    benchmark::DoNotOptimize(query(i));
  const auto t1 = std::chrono::steady_clock::now();
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                 .count()) /
         static_cast<double>(kQueriesPerRepeat);
}

void write_results(std::ofstream& out, const char* indent, const char* what,
                   const std::vector<std::size_t>& windows,
                   const std::vector<Spread>& spreads) {
  for (std::size_t i = 0; i < windows.size(); ++i) {
    const Spread& ns = spreads[i];
    out << indent << "{\"window\": " << windows[i] << ", \"best\": " << ns.best
        << ", \"median\": " << ns.median << ", \"max\": " << ns.max << "}"
        << (i + 1 < windows.size() ? "," : "") << "\n";
    std::cout << "  " << what << " window " << windows[i] << ": best "
              << ns.best << " / median " << ns.median << " / max " << ns.max
              << " ns/feedback (" << kRepeats << " repeats)\n";
  }
}

// Perf-trajectory file: one JSON object per window size and channel
// model, so a future PR can diff the spread and flag window-size-dependent
// cost (the telltale is the largest/smallest ratio growing, not the
// absolute numbers). Exits non-zero if any timed Ledger query hit the
// memo (the figure would then not be the seek it claims to be).
void write_trajectory() {
  const std::vector<std::size_t> ledger_windows = {100, 10000, 1000000};
  const std::vector<std::size_t> live_windows = {100, 10000};
  std::vector<std::unique_ptr<Ledger>> ledgers;
  std::vector<std::unique_ptr<live::LiveChannel>> lives;
  std::vector<Tick> ledger_now(ledger_windows.size());
  std::vector<Tick> live_now(live_windows.size());
  for (std::size_t w = 0; w < ledger_windows.size(); ++w)
    ledgers.push_back(build_window(ledger_windows[w], &ledger_now[w]));
  for (std::size_t w = 0; w < live_windows.size(); ++w)
    lives.push_back(build_live_window(live_windows[w], &live_now[w]));

  // Warm-up, then reset the memo-hit counter the self-check reads.
  for (std::size_t w = 0; w < ledgers.size(); ++w) {
    for (std::uint64_t i = 0; i < 1000; ++i)
      benchmark::DoNotOptimize(tail_query(*ledgers[w], ledger_now[w], i));
    ledgers[w]->flush_telemetry();
  }
  telemetry::Counter& memo_hits =
      telemetry::Registry::global().counter("channel.memo_hits");
  memo_hits.reset();

  std::vector<std::vector<double>> ledger_ns(ledger_windows.size());
  std::vector<std::vector<double>> live_ns(live_windows.size());
  for (int rep = 0; rep < kRepeats; ++rep) {
    for (std::size_t w = 0; w < ledgers.size(); ++w) {
      Ledger& ledger = *ledgers[w];
      const Tick now = ledger_now[w];
      ledger_ns[w].push_back(time_batch(
          [&](std::uint64_t i) { return tail_query(ledger, now, i); }));
    }
    for (std::size_t w = 0; w < lives.size(); ++w) {
      const live::LiveChannel& ch = *lives[w];
      const Tick now = live_now[w];
      live_ns[w].push_back(time_batch(
          [&](std::uint64_t i) { return live_tail_query(ch, now, i); }));
    }
  }
  for (const auto& ledger : ledgers) ledger->flush_telemetry();
  if (memo_hits.value() != 0) {
    std::cerr << "bench_ledger: " << memo_hits.value()
              << " timed queries replayed the memo\n";
    std::exit(1);
  }
  std::vector<Spread> ledger_spread, live_spread;
  for (auto& ns : ledger_ns) ledger_spread.push_back(spread_of(ns));
  for (auto& ns : live_ns) live_spread.push_back(spread_of(ns));

  std::ofstream out("BENCH_ledger.json");
  out << "{\n  \"bench\": \"ledger_feedback\",\n  \"unit\": "
         "\"ns_per_feedback\",\n  \"query\": \"memo-missing, alternating "
         "[now-U, now) and [now-2U, now-U) at the window tail\",\n"
      << "  \"repeats\": " << kRepeats << ",\n  \"queries_per_repeat\": "
      << kQueriesPerRepeat
      << ",\n  \"schedule\": \"round-robin: each repeat times every window "
         "size of both channel models once\",\n  \"results\": [\n";
  write_results(out, "    ", "ledger", ledger_windows, ledger_spread);
  const double ratio =
      ledger_spread.back().median / ledger_spread.front().median;
  out << "  ],\n  \"ratio_1e6_over_1e2\": " << ratio << ",\n"
      << "  \"live_channel\": {\n    \"query\": \"no memo; the same "
         "alternating tail slots, open transmissions begun at now-U/2\",\n"
      << "    \"open_at_tail\": " << kOpenAtTail
      << ",\n    \"results\": [\n";
  write_results(out, "      ", "live", live_windows, live_spread);
  const double live_ratio =
      live_spread.back().median / live_spread.front().median;
  out << "    ],\n    \"ratio_1e4_over_1e2\": " << live_ratio << "\n  }\n}\n";
  std::cout << "  ledger 1e6/1e2 median cost ratio: " << ratio
            << " (O(W) would be ~10000; the tail seek stays near 1)\n"
            << "  live 1e4/1e2 median cost ratio: " << live_ratio
            << " (O(W) would be ~100)\n"
            << "(trajectory written to BENCH_ledger.json)\n\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::cout << "bench_ledger — feedback() cost vs window size\n\n";
  telemetry::set_enabled(true);  // the memo-hit self-check reads a counter
  write_trajectory();
  telemetry::set_enabled(false);
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
