// bench_codec — throughput of the snapshot codec (snapshot/io.h) on the
// three paths that put it on a hot loop:
//
//   engine_save_load   Engine::save_state + load_state of a fuzz-shaped
//                      engine (trace recording + full channel history,
//                      the state verify::run_case snapshots six times per
//                      case), in MB/s of payload per save+load pair;
//   live_datagram      live::encode + live::decode of the per-slot
//                      datagram mix of a live run, in ns per datagram;
//   crc32              snapshot::crc32 over a 64 KiB buffer, in MB/s.
//
// Every round times all three back to back, so host noise lands on all of
// them alike. BENCH_codec.json records best / median / min / max over
// the rounds (best is max for MB/s, min for ns). With
// ASYNCMAC_BENCH_BASELINE naming a BENCH_codec.json written by another
// build of this file (e.g. against the parent commit's library), its
// numbers are carried beside this build's as "parent", with the ratio of
// the medians.
//
//   bench_codec                  15 rounds (committed trajectory)
//   bench_codec --quick          3 short rounds (CI perf-smoke)
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "live/wire.h"
#include "snapshot/checkpoint.h"
#include "snapshot/io.h"

namespace {

using namespace asyncmac;

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The engine a mid-size fuzz case builds: 5 stations, R=3, per-station
/// slot lengths, a saturating injector, 200 time units (the top of the
/// scenario generator's horizon range), trace and full channel history
/// kept — the shape whose snapshots dominate a fuzz campaign's time.
snapshot::RunSpec fuzz_shaped_spec() {
  snapshot::RunSpec spec;
  spec.protocol = "ao-arrow";
  spec.n = 5;
  spec.bound_r = 3;
  spec.slot_policy = "perstation";
  spec.seed = 7;
  spec.horizon_units = 200;
  spec.record_trace = true;
  spec.keep_channel_history = true;
  return spec;
}

/// The datagrams of one live slot and its feedback, rotated through.
std::vector<live::Msg> live_mix() {
  std::vector<live::Msg> out;
  live::Msg m;
  m.type = live::MsgType::kBoundary;
  m.station = 3;
  m.slot_index = 123456;
  m.action = SlotAction::kTransmitPacket;
  out.push_back(m);
  m = {};
  m.type = live::MsgType::kGrant;
  m.slot_index = 123456;
  m.length = 2 * kTicksPerUnit;
  out.push_back(m);
  m = {};
  m.type = live::MsgType::kSlotEnd;
  m.station = 3;
  m.slot_index = 123456;
  out.push_back(m);
  m = {};
  m.type = live::MsgType::kFeedback;
  m.slot_index = 123456;
  m.feedback = Feedback::kAck;
  m.delivered = true;
  m.injections = {{987654321, kTicksPerUnit}};
  out.push_back(m);
  return out;
}

struct Spread {
  double best = 0, median = 0, min = 0, max = 0;
};

/// best is the better end: the largest value when higher is better.
Spread spread_of(std::vector<double> v, bool higher_is_better) {
  std::sort(v.begin(), v.end());
  Spread s;
  s.median = v[v.size() / 2];
  s.min = v.front();
  s.max = v.back();
  s.best = higher_is_better ? s.max : s.min;
  return s;
}

struct Metric {
  const char* name;
  const char* unit;
  bool higher_is_better;
  std::vector<double> samples;
};

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      std::cerr << "usage: bench_codec [--quick]\n";
      return 2;
    }
  }
  const int rounds = quick ? 3 : 15;
  const int save_load_reps = quick ? 50 : 400;
  const int datagram_reps = quick ? 50000 : 500000;
  const int crc_reps = quick ? 200 : 2000;

  // Fixed inputs, built once.
  const snapshot::RunSpec spec = fuzz_shaped_spec();
  auto source = snapshot::build_engine(spec);
  source->run(sim::until(spec.horizon_units * kTicksPerUnit));
  auto target = snapshot::build_engine(spec);
  std::size_t state_bytes = 0;
  {
    snapshot::Writer w;
    source->save_state(w);
    state_bytes = w.buffer().size();
  }
  const std::vector<live::Msg> mix = live_mix();
  std::vector<std::uint8_t> crc_buf(64 * 1024);
  for (std::size_t i = 0; i < crc_buf.size(); ++i)
    crc_buf[i] = static_cast<std::uint8_t>(i * 2654435761u >> 24);

  std::vector<Metric> metrics = {
      {"engine_save_load", "MB_per_s", true, {}},
      {"live_datagram", "ns_per_datagram", false, {}},
      {"crc32", "MB_per_s", true, {}},
  };
  std::uint64_t sink = 0;  // keeps results observable
  for (int round = 0; round < rounds; ++round) {
    {
      const auto t0 = Clock::now();
      for (int i = 0; i < save_load_reps; ++i) {
        snapshot::Writer w;
        source->save_state(w);
        snapshot::Reader r(w.buffer());
        target->load_state(r);
        sink += w.buffer().size();
      }
      const double sec = seconds_since(t0);
      metrics[0].samples.push_back(static_cast<double>(state_bytes) *
                                   save_load_reps / sec / 1e6);
    }
    {
      const auto t0 = Clock::now();
      for (int i = 0; i < datagram_reps; ++i) {
        const live::Msg& m = mix[static_cast<std::size_t>(i) % mix.size()];
        const live::Msg d = live::decode(live::encode(m));
        sink += d.slot_index;
      }
      metrics[1].samples.push_back(seconds_since(t0) * 1e9 / datagram_reps);
    }
    {
      const auto t0 = Clock::now();
      std::uint32_t crc = 0;
      for (int i = 0; i < crc_reps; ++i)
        crc = snapshot::crc32(crc_buf.data(), crc_buf.size(), crc);
      const double sec = seconds_since(t0);
      sink += crc;
      metrics[2].samples.push_back(static_cast<double>(crc_buf.size()) *
                                   crc_reps / sec / 1e6);
    }
  }

  std::map<std::string, Spread> parent;
  if (const char* path = std::getenv("ASYNCMAC_BENCH_BASELINE");
      path && *path) {
    const auto best = bench::load_baseline(path, "best");
    const auto median = bench::load_baseline(path, "median");
    const auto min = bench::load_baseline(path, "min");
    const auto max = bench::load_baseline(path, "max");
    for (const auto& [name, value] : median)
      if (best.count(name) && min.count(name) && max.count(name))
        parent[name] = {best.at(name), value, min.at(name), max.at(name)};
  }

  std::ofstream out("BENCH_codec.json");
  out << "{\n  \"bench\": \"snapshot_codec\",\n"
      << "  \"rounds\": " << rounds << ",\n"
      << "  \"engine_state_bytes\": " << state_bytes << ",\n"
      << "  \"reps_per_round\": {\"engine_save_load\": " << save_load_reps
      << ", \"live_datagram\": " << datagram_reps
      << ", \"crc32\": " << crc_reps << "},\n"
      << "  \"results\": [\n";
  std::cout << "bench_codec — snapshot codec throughput"
            << (quick ? " (quick)" : "")
            << ", " << rounds << " rounds; engine state " << state_bytes
            << " bytes\n";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    const Spread s = spread_of(m.samples, m.higher_is_better);
    out << "    {\"name\": \"" << m.name << "\", \"unit\": \"" << m.unit
        << "\", \"better\": \"" << (m.higher_is_better ? "higher" : "lower")
        << "\", \"best\": " << s.best << ", \"median\": " << s.median
        << ", \"min\": " << s.min << ", \"max\": " << s.max;
    std::cout << "  " << m.name << ": best " << s.best << " / median "
              << s.median << " / min " << s.min << " / max " << s.max << " "
              << m.unit;
    if (const auto it = parent.find(m.name); it != parent.end()) {
      const Spread& p = it->second;
      // Speedup > 1 means this build is faster, whichever way the unit
      // points.
      const double speedup =
          m.higher_is_better ? s.median / p.median : p.median / s.median;
      out << ",\n     \"parent\": {\"best\": " << p.best
          << ", \"median\": " << p.median << ", \"min\": " << p.min
          << ", \"max\": " << p.max
          << "}, \"speedup_median\": " << speedup;
      std::cout << "  (parent median " << p.median << ", x" << speedup << ")";
    }
    out << "}" << (i + 1 < metrics.size() ? "," : "") << "\n";
    std::cout << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "(trajectory written to BENCH_codec.json; checksum " << sink % 10
            << ")\n";
  return 0;
}
