// bench_engine — end-to-end slots/sec of the whole simulation engine.
//
// Every experiment in the reduction bottoms out in Engine::step, executed
// billions of times across grids, so the serial per-slot cost caps the
// science we can run. This harness times complete engine runs (protocol +
// slot policy + injection + ledger + metrics) across the load-bearing
// axes — station count, synchrony, injection pressure, telemetry — and
// writes BENCH_engine.json so every future PR has a hot-loop trajectory
// to diff (the same role BENCH_ledger.json plays for the ledger alone).
//
// Modes:
//   bench_engine                 full budget (committed trajectory runs)
//   bench_engine --quick         short budget (CI perf-smoke)
//   ASYNCMAC_BENCH_BASELINE=f    merge baseline slots/sec from a previous
//                                BENCH_engine.json and report speedups
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <filesystem>

#include "core/ca_arrow.h"
#include "harness.h"
#include "sim/cohort_engine.h"
#include "snapshot/checkpoint.h"
#include "telemetry/registry.h"

namespace {

using namespace asyncmac;
using namespace asyncmac::bench;

struct EngineBenchConfig {
  std::string name;
  std::uint32_t n = 2;
  std::uint32_t bound_r = 1;  ///< 1 = synchronous, else per-station async
  bool injections = false;
  bool telemetry = false;
};

std::string config_name(std::uint32_t n, std::uint32_t r, bool inj,
                        bool telemetry) {
  std::ostringstream os;
  os << "n" << n << "_" << (r == 1 ? "sync" : "async_r" + std::to_string(r))
     << (inj ? "_inj" : "_noinj") << (telemetry ? "_telemetry" : "");
  return os.str();
}

/// The benchmark matrix: n x {sync R=1, async R=4} x {with, without
/// injections}, telemetry off; plus telemetry-on variants at n=64 (the
/// acceptance config's size) to price the instrumentation itself.
std::vector<EngineBenchConfig> configs() {
  std::vector<EngineBenchConfig> out;
  for (std::uint32_t n : {2u, 8u, 64u, 512u}) {
    for (std::uint32_t r : {1u, 4u}) {
      for (bool inj : {false, true}) {
        out.push_back({config_name(n, r, inj, false), n, r, inj, false});
      }
    }
  }
  for (std::uint32_t r : {1u, 4u}) {
    for (bool inj : {false, true}) {
      out.push_back({config_name(64, r, inj, true), 64, r, inj, true});
    }
  }
  return out;
}

std::unique_ptr<sim::Engine> build_engine(const EngineBenchConfig& c,
                                          std::uint64_t prune_interval = 0,
                                          std::uint64_t ckpt_interval = 0,
                                          std::uint64_t* sink_ns = nullptr) {
  sim::EngineConfig cfg;
  cfg.n = c.n;
  cfg.bound_r = c.bound_r;
  cfg.seed = 1;
  if (prune_interval > 0) cfg.prune_interval = prune_interval;
  if (ckpt_interval > 0) {
    // Price the production autosave path end to end: serialize the
    // complete engine state, frame + CRC it, atomically write-rename into
    // the rotating retention set. A stale directory from the previous rep
    // would turn every write into a same-name replace (a ~4x slower ext4
    // path than fresh files), which no real autosaving run hits — so
    // start each rep clean. The RunSpec content is irrelevant to timing
    // (a few dozen bytes alongside the engine payload). When `sink_ns`
    // is given, each save's wall time accumulates into it.
    cfg.checkpoint_interval = ckpt_interval;
    std::filesystem::remove_all("bench_ckpt_tmp");
    auto saver = std::make_shared<snapshot::AutoSaver>(
        "bench_ckpt_tmp", snapshot::RunSpec{}, 2);
    cfg.checkpoint_sink = [saver, sink_ns](const sim::Engine& e) {
      const auto t0 = std::chrono::steady_clock::now();
      (*saver)(e);
      if (sink_ns)
        *sink_ns += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count());
    };
  }
  return std::make_unique<sim::Engine>(
      cfg, protocols<core::CaArrowProtocol>(c.n),
      c.bound_r == 1 ? sync_policy() : per_station_policy(c.n, c.bound_r),
      c.injections ? saturating(util::Ratio(1, 2), 8 * U) : nullptr);
}

/// One timed run of `slots` slots: slots/sec, engine construction
/// excluded.
double timed_run(const EngineBenchConfig& c, std::uint64_t slots,
                 std::uint64_t prune_interval = 0,
                 std::uint64_t ckpt_interval = 0) {
  auto engine = build_engine(c, prune_interval, ckpt_interval);
  sim::StopCondition stop;
  stop.max_total_slots = slots;
  const auto t0 = std::chrono::steady_clock::now();
  engine->run(stop);
  const auto t1 = std::chrono::steady_clock::now();
  const double sec =
      std::chrono::duration_cast<std::chrono::duration<double>>(t1 - t0)
          .count();
  return static_cast<double>(engine->stats().total_slots) / sec;
}

/// Run `slot_budget` slots and return slots/sec (one warmup run, then the
/// best of kBenchReps timed runs — engine construction excluded; see
/// min_of_n_rate for why best-of-N, not median).
double slots_per_sec(const EngineBenchConfig& c, std::uint64_t slot_budget,
                     std::uint64_t prune_interval = 0,
                     std::uint64_t ckpt_interval = 0) {
  const bool was_enabled = telemetry::enabled();
  telemetry::set_enabled(c.telemetry);
  timed_run(c, slot_budget / 8, prune_interval, ckpt_interval);  // warmup
  const double rate = min_of_n_rate(
      [&] { return timed_run(c, slot_budget, prune_interval, ckpt_interval); });
  telemetry::set_enabled(was_enabled);
  return rate;
}

/// Checkpointed slots/sec plus the autosave overhead, measured directly:
/// wall time spent inside the checkpoint sink over wall time of the same
/// run. Comparing two separate runs (checkpointed vs not) cannot resolve
/// a few-percent effect on a shared VM — run-to-run rate noise is ±10% —
/// whereas the in-run ratio pairs every save against the run it slowed
/// down, so frequency drift and scheduler jitter cancel.
struct CkptPoint {
  double slots_per_sec = 0;
  double overhead_pct = 0;
};

CkptPoint checkpoint_point(const EngineBenchConfig& c,
                           std::uint64_t slot_budget, std::uint64_t interval) {
  const bool was_enabled = telemetry::enabled();
  telemetry::set_enabled(c.telemetry);
  // Best-of-N like min_of_n_rate, but hand-rolled so the reported
  // overhead_pct is the one *paired* with the fastest rep — mixing the
  // rate of one rep with the overhead of another would break the in-run
  // ratio this measurement exists for.
  CkptPoint best;
  for (int rep = -1; rep < kBenchReps; ++rep) {
    std::uint64_t sink_ns = 0;
    auto engine = build_engine(c, 0, interval, &sink_ns);
    sim::StopCondition stop;
    stop.max_total_slots = rep < 0 ? slot_budget / 8 : slot_budget;
    const auto t0 = std::chrono::steady_clock::now();
    engine->run(stop);
    const auto t1 = std::chrono::steady_clock::now();
    if (rep < 0) continue;  // warmup
    const double run_ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count());
    const double rate =
        static_cast<double>(engine->stats().total_slots) / (run_ns * 1e-9);
    if (rate > best.slots_per_sec)
      best = {rate, 100.0 * static_cast<double>(sink_ns) / run_ns};
  }
  telemetry::set_enabled(was_enabled);
  return best;
}

// ---------------------------------------------------------------- cohort

/// One lane's materials for the cohort bench: the exact engine the scalar
/// suite above builds (build_engine without prune/checkpoint overrides),
/// parameterized by seed so lanes differ the way grid seed replicas do.
sim::LaneMaterials cohort_materials(const EngineBenchConfig& c,
                                    std::uint64_t seed) {
  sim::LaneMaterials m;
  m.cfg.n = c.n;
  m.cfg.bound_r = c.bound_r;
  m.cfg.seed = seed;
  m.protocols = protocols<core::CaArrowProtocol>(c.n);
  m.slot_policy =
      c.bound_r == 1 ? sync_policy() : per_station_policy(c.n, c.bound_r);
  if (c.injections) m.injection = saturating(util::Ratio(1, 2), 8 * U, seed);
  return m;
}

struct CohortPoint {
  double cohort_slots_per_sec = 0;
  double scalar_slots_per_sec = 0;
  bool lockstep = false;
};

/// Aggregate slots/sec of K lockstep lanes vs the same K replicas run as
/// sequential scalar engines. The slot budget is split evenly across the
/// lanes so every K processes the same total number of slots; both sides
/// exclude construction (one warmup rep each, then the best of
/// kBenchReps — the two sides take their best independently, so the
/// speedup column compares two least-noise estimates).
CohortPoint cohort_point(const EngineBenchConfig& c, std::size_t k_lanes,
                         std::uint64_t slot_budget) {
  const bool was_enabled = telemetry::enabled();
  telemetry::set_enabled(false);
  const auto lane_seed = [](std::size_t k) { return 1 + k * 1000003ULL; };
  CohortPoint out;
  const auto secs = [](auto a, auto b) {
    return std::chrono::duration_cast<std::chrono::duration<double>>(b - a)
        .count();
  };

  const auto cohort_rep = [&](std::uint64_t budget) {
    sim::StopCondition stop;
    stop.max_total_slots = budget / k_lanes;
    std::vector<sim::LaneBuilder> builders;
    builders.reserve(k_lanes);
    for (std::size_t k = 0; k < k_lanes; ++k)
      builders.push_back(
          [c, seed = lane_seed(k)] { return cohort_materials(c, seed); });
    sim::CohortEngine cohort(std::move(builders));
    out.lockstep = cohort.lockstep();
    const auto t0 = std::chrono::steady_clock::now();
    cohort.run(stop);
    const auto t1 = std::chrono::steady_clock::now();
    std::uint64_t slots = 0;
    for (std::size_t k = 0; k < k_lanes; ++k)
      slots += cohort.stats(k).total_slots;
    return static_cast<double>(slots) / secs(t0, t1);
  };

  const auto scalar_rep = [&](std::uint64_t budget) {
    sim::StopCondition stop;
    stop.max_total_slots = budget / k_lanes;
    std::vector<std::unique_ptr<sim::Engine>> engines;
    engines.reserve(k_lanes);
    for (std::size_t k = 0; k < k_lanes; ++k) {
      sim::LaneMaterials m = cohort_materials(c, lane_seed(k));
      engines.push_back(std::make_unique<sim::Engine>(
          std::move(m.cfg), std::move(m.protocols), std::move(m.slot_policy),
          std::move(m.injection)));
    }
    const auto t0 = std::chrono::steady_clock::now();
    for (auto& e : engines) e->run(stop);
    const auto t1 = std::chrono::steady_clock::now();
    std::uint64_t slots = 0;
    for (const auto& e : engines) slots += e->stats().total_slots;
    return static_cast<double>(slots) / secs(t0, t1);
  };

  cohort_rep(slot_budget / 8);  // warmup
  out.cohort_slots_per_sec =
      min_of_n_rate([&] { return cohort_rep(slot_budget); });
  scalar_rep(slot_budget / 8);  // warmup
  out.scalar_slots_per_sec =
      min_of_n_rate([&] { return scalar_rep(slot_budget); });
  telemetry::set_enabled(was_enabled);
  return out;
}

// ------------------------------------------------------------ trajectory

void write_trajectory(bool quick) {
  const std::uint64_t budget = quick ? 200000 : 2000000;
  const auto cfgs = configs();
  std::map<std::string, double> baseline;
  if (const char* path = std::getenv("ASYNCMAC_BENCH_BASELINE");
      path && *path) {
    // Warn-and-skip reconciliation (bench/harness.h): a baseline written
    // by an older or newer suite must not fail the whole bench.
    std::vector<std::string> expected;
    for (const auto& c : cfgs) expected.push_back(c.name);
    baseline = merge_baseline(path, "slots_per_sec", expected);
  }

  std::ofstream out("BENCH_engine.json");
  out << "{\n  \"bench\": \"engine_slots_per_sec\",\n"
      << "  \"unit\": \"slots_per_sec\",\n"
      << "  \"protocol\": \"ca-arrow\",\n"
      << "  \"slot_budget\": " << budget << ",\n  \"results\": [\n";
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    const auto& c = cfgs[i];
    const double sps = slots_per_sec(c, budget);
    out << "    {\"name\": \"" << c.name << "\",\n"
        << "     \"n\": " << c.n << ", \"r\": " << c.bound_r
        << ", \"injections\": " << (c.injections ? "true" : "false")
        << ", \"telemetry\": " << (c.telemetry ? "true" : "false")
        << ",\n     \"slots_per_sec\": " << sps;
    std::cout << "  " << c.name << ": " << static_cast<std::uint64_t>(sps)
              << " slots/sec";
    if (const auto it = baseline.find(c.name); it != baseline.end()) {
      out << ",\n     \"baseline_slots_per_sec\": " << it->second
          << ", \"speedup\": " << sps / it->second;
      std::cout << "  (baseline " << static_cast<std::uint64_t>(it->second)
                << ", speedup " << sps / it->second << "x)";
    }
    out << "}" << (i + 1 < cfgs.size() ? "," : "") << "\n";
    std::cout << "\n";
  }
  out << "  ],\n  \"cohort\": [\n";
  // The batched cohort engine (sim/cohort_engine.h): K seed replicas of
  // the acceptance-size config (n=64) advanced in lockstep vs the same K
  // run as sequential scalar engines. K=1 prices the lane indirection
  // alone; K in {4, 8, 16} is the Monte-Carlo regime run_grid batches at.
  // Acceptance: >= 3x aggregate slots/sec at K=8 on the noinj configs.
  {
    const std::size_t lane_counts[] = {1, 4, 8, 16};
    std::vector<std::string> lines;
    for (std::uint32_t r : {1u, 4u}) {
      for (bool inj : {false, true}) {
        EngineBenchConfig c{config_name(64, r, inj, false), 64, r, inj,
                            false};
        for (std::size_t k : lane_counts) {
          const CohortPoint p = cohort_point(c, k, budget);
          std::ostringstream line;
          line << "    {\"name\": \"" << c.name << "_k" << k
               << "\", \"lanes\": " << k << ", \"n\": " << c.n
               << ", \"r\": " << c.bound_r
               << ", \"injections\": " << (c.injections ? "true" : "false")
               << ",\n     \"lockstep\": " << (p.lockstep ? "true" : "false")
               << ", \"cohort_slots_per_sec\": " << p.cohort_slots_per_sec
               << ",\n     \"scalar_slots_per_sec\": "
               << p.scalar_slots_per_sec << ", \"speedup\": "
               << p.cohort_slots_per_sec / p.scalar_slots_per_sec << "}";
          lines.push_back(line.str());
          std::cout << "  cohort " << c.name << " k=" << k << ": "
                    << static_cast<std::uint64_t>(p.cohort_slots_per_sec)
                    << " slots/sec aggregate (scalar "
                    << static_cast<std::uint64_t>(p.scalar_slots_per_sec)
                    << ", speedup "
                    << p.cohort_slots_per_sec / p.scalar_slots_per_sec
                    << "x)\n";
        }
      }
    }
    for (std::size_t i = 0; i < lines.size(); ++i)
      out << lines[i] << (i + 1 < lines.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"prune_interval_sweep\": [\n";
  // Justify EngineConfig::prune_interval's default: sweep the cadence on
  // the acceptance config (n=64 async) with injections (the prune actually
  // has work to do only when transmissions fill the window). The points
  // differ by a few percent at most, less than one run's noise, so each
  // is timed kSweepRounds times, round-robin across the intervals (a slow
  // phase of the host then hits every interval alike), and recorded as
  // best ("slots_per_sec") / median / worst.
  {
    constexpr int kSweepRounds = 7;
    EngineBenchConfig c{config_name(64, 4, true, false), 64, 4, true, false};
    const std::uint64_t intervals[] = {256, 1024, 4096, 16384, 65536};
    const std::size_t count = sizeof(intervals) / sizeof(intervals[0]);
    std::vector<std::vector<double>> rates(count);
    for (std::size_t i = 0; i < count; ++i)
      timed_run(c, budget / 8, intervals[i]);  // warmup
    for (int round = 0; round < kSweepRounds; ++round)
      for (std::size_t i = 0; i < count; ++i)
        rates[i].push_back(timed_run(c, budget, intervals[i]));
    for (std::size_t i = 0; i < count; ++i) {
      std::vector<double>& r = rates[i];
      std::sort(r.begin(), r.end());
      out << "    {\"prune_interval\": " << intervals[i]
          << ", \"slots_per_sec\": " << r.back()
          << ", \"median_slots_per_sec\": " << r[r.size() / 2]
          << ", \"worst_slots_per_sec\": " << r.front()
          << ", \"rounds\": " << kSweepRounds << "}"
          << (i + 1 < count ? "," : "") << "\n";
      std::cout << "  prune_interval " << intervals[i] << ": best "
                << static_cast<std::uint64_t>(r.back()) << " / median "
                << static_cast<std::uint64_t>(r[r.size() / 2]) << " / worst "
                << static_cast<std::uint64_t>(r.front()) << " slots/sec ("
                << kSweepRounds << " rounds)\n";
    }
  }
  out << "  ],\n  \"checkpoint_overhead\": [\n";
  // Acceptance gate for the snapshot subsystem (docs/CHECKPOINT.md):
  // autosaving every 65536 slots must cost <= 5% slots/sec on the n=64
  // configs. overhead_pct is the in-run sink-time fraction (see
  // checkpoint_point); the uncheckpointed rate is re-measured back to
  // back for the record, but the gate reads overhead_pct.
  {
    const std::uint64_t interval = 65536;
    // A few-percent effect needs enough autosaves to average over, and a
    // 200k-slot quick run holds only 3 — so this section always uses the
    // full budget (~30 saves, ~80 ms per timed rep).
    const std::uint64_t ck_budget = 2000000;
    std::vector<EngineBenchConfig> n64;
    for (const auto& c : cfgs)
      if (c.n == 64 && !c.telemetry) n64.push_back(c);
    for (std::size_t i = 0; i < n64.size(); ++i) {
      const auto& c = n64[i];
      const double base = slots_per_sec(c, ck_budget);
      const CkptPoint p = checkpoint_point(c, ck_budget, interval);
      out << "    {\"name\": \"" << c.name
          << "\", \"checkpoint_interval\": " << interval
          << ",\n     \"slots_per_sec\": " << p.slots_per_sec
          << ", \"uncheckpointed_slots_per_sec\": " << base
          << ", \"overhead_pct\": " << p.overhead_pct << "}"
          << (i + 1 < n64.size() ? "," : "") << "\n";
      std::cout << "  checkpoint@" << interval << " " << c.name << ": "
                << static_cast<std::uint64_t>(p.slots_per_sec)
                << " slots/sec (" << p.overhead_pct << "% overhead)\n";
    }
    std::filesystem::remove_all("bench_ckpt_tmp");
  }
  out << "  ]\n}\n";
  std::cout << "(trajectory written to BENCH_engine.json)\n\n";
}

// ------------------------------------------- google-benchmark registrations

void BM_EngineRun(benchmark::State& state) {
  EngineBenchConfig c;
  c.n = static_cast<std::uint32_t>(state.range(0));
  c.bound_r = static_cast<std::uint32_t>(state.range(1));
  c.injections = state.range(2) != 0;
  std::uint64_t slots = 0;
  for (auto _ : state) {
    auto engine = build_engine(c);
    sim::StopCondition stop;
    stop.max_total_slots = 100000;
    engine->run(stop);
    slots += engine->stats().total_slots;
  }
  state.counters["slots_per_sec"] = benchmark::Counter(
      static_cast<double>(slots), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EngineRun)
    ->Args({64, 4, 0})
    ->Args({64, 4, 1})
    ->Args({64, 1, 0})
    ->Args({512, 4, 1})
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  // Strip our own flag before google-benchmark sees argv.
  int out_argc = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0)
      quick = true;
    else
      argv[out_argc++] = argv[i];
  }
  argc = out_argc;
  std::cout << "bench_engine — end-to-end engine slots/sec"
            << (quick ? " (quick)" : "") << "\n\n";
  write_trajectory(quick);
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
