// bench_ledger — microbenchmark of the channel ledger hot path.
//
// The engine calls Ledger::feedback once per slot end, so its cost is the
// per-slot cost of the whole simulator. A query that the O(1) fast paths
// and the repeat-query memo cannot answer seeks the begin-sorted window
// from its tail (channel/window_seek.h) and scans the slot's neighborhood:
// O(log d + neighborhood) for an entry d places from the tail, flat in the
// window size W for the engine's near-"now" queries.
//
// The trajectory times memo-missing queries at the window tail at
// W = 1e2 / 1e4 / 1e6: consecutive queries alternate between two slots,
// so every one runs the seek-and-scan tail (a repeated identical query
// would only time the memo replay). Each window size is timed over
// kRepeats batches; BENCH_ledger.json records best / median / max ns per
// query, and the 1e6/1e2 ratio of the medians flags window-size-dependent
// cost (a binary seek reads ~3, a front-to-back scan ~1e4).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <vector>

#include "channel/ledger.h"
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

constexpr int kRepeats = 15;
constexpr std::uint64_t kQueriesPerRepeat = 200000;

struct Spread {
  double best, median, max;
};

// ns per memo-missing tail query at window size `window`: kRepeats timed
// batches after a warm-up. Exits non-zero if any timed query hit the
// memo (the figure would then not be the seek it claims to be).
Spread time_feedback_ns(std::size_t window) {
  Tick now = 0;
  auto ledger = build_window(window, &now);
  for (std::uint64_t i = 0; i < 1000; ++i)
    benchmark::DoNotOptimize(tail_query(*ledger, now, i));
  ledger->flush_telemetry();
  telemetry::Counter& memo_hits =
      telemetry::Registry::global().counter("channel.memo_hits");
  memo_hits.reset();
  std::vector<double> ns;
  for (int rep = 0; rep < kRepeats; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < kQueriesPerRepeat; ++i)
      benchmark::DoNotOptimize(tail_query(*ledger, now, i));
    const auto t1 = std::chrono::steady_clock::now();
    ns.push_back(static_cast<double>(
                     std::chrono::duration_cast<std::chrono::nanoseconds>(
                         t1 - t0)
                         .count()) /
                 static_cast<double>(kQueriesPerRepeat));
  }
  ledger->flush_telemetry();
  if (memo_hits.value() != 0) {
    std::cerr << "bench_ledger: " << memo_hits.value()
              << " timed queries replayed the memo at window " << window
              << "\n";
    std::exit(1);
  }
  std::sort(ns.begin(), ns.end());
  return {ns.front(), ns[ns.size() / 2], ns.back()};
}

// Perf-trajectory file: one JSON object per window size, so a future PR
// can diff the spread and flag window-size-dependent cost (the telltale
// is the 1e6/1e2 ratio growing, not the absolute numbers).
void write_trajectory() {
  const std::size_t windows[] = {100, 10000, 1000000};
  std::ofstream out("BENCH_ledger.json");
  out << "{\n  \"bench\": \"ledger_feedback\",\n  \"unit\": "
         "\"ns_per_feedback\",\n  \"query\": \"memo-missing, alternating "
         "[now-U, now) and [now-2U, now-U) at the window tail\",\n"
      << "  \"repeats\": " << kRepeats << ",\n  \"queries_per_repeat\": "
      << kQueriesPerRepeat << ",\n  \"results\": [\n";
  double median100 = 0, median1m = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    const Spread ns = time_feedback_ns(windows[i]);
    if (windows[i] == 100) median100 = ns.median;
    if (windows[i] == 1000000) median1m = ns.median;
    out << "    {\"window\": " << windows[i] << ", \"best\": " << ns.best
        << ", \"median\": " << ns.median << ", \"max\": " << ns.max << "}"
        << (i + 1 < 3 ? "," : "") << "\n";
    std::cout << "  window " << windows[i] << ": best " << ns.best
              << " / median " << ns.median << " / max " << ns.max
              << " ns/feedback (" << kRepeats << " repeats)\n";
  }
  const double ratio = median100 > 0 ? median1m / median100 : 0;
  out << "  ],\n  \"ratio_1e6_over_1e2\": " << ratio << "\n}\n";
  std::cout << "  1e6/1e2 median cost ratio: " << ratio
            << " (O(W) would be ~10000; the tail seek stays near 1)\n"
            << "(trajectory written to BENCH_ledger.json)\n\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::cout << "bench_ledger — feedback() cost vs live window size\n\n";
  telemetry::set_enabled(true);  // the memo-hit self-check reads a counter
  write_trajectory();
  telemetry::set_enabled(false);
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
