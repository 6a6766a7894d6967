#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <deque>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "analysis/experiment.h"
#include "analysis/grid.h"
#include "analysis/msr.h"
#include "analysis/stability.h"
#include "live/daemon.h"
#include "live/station.h"
#include "live/virtual_net.h"
#include "live/wire.h"
#include "metrics/json.h"
#include "sim/cohort_engine.h"
#include "sim/engine.h"
#include "snapshot/checkpoint.h"
#include "snapshot/io.h"
#include "telemetry/registry.h"
#include "trace/invariants.h"
#include "trace/serialize.h"
#include "util/thread_pool.h"
#include "verify/campaign.h"
#include "verify/reference_channel.h"
#include "verify/scenario.h"

namespace e2ebench {

namespace am = asyncmac;

namespace {

// ------------------------------------------------------------- helpers

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

/// Wall and CPU time of one call into the library.
template <class F>
auto timed(PassResult& r, F&& f) {
  const std::int64_t w0 = now_ns();
  const double c0 = cpu_seconds();
  auto out = f();
  r.cpu_s = cpu_seconds() - c0;
  r.wall_s = static_cast<double>(now_ns() - w0) * 1e-9;
  return out;
}

std::string hex64(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex;
  os.width(16);
  os.fill('0');
  os << v;
  return os.str();
}

std::string fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return hex64(h);
}

std::uint64_t counter(const char* name) {
  return am::telemetry::Registry::global().counter(name).value();
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double sum_ns(const std::vector<std::int64_t>& v) {
  return static_cast<double>(std::accumulate(v.begin(), v.end(), std::int64_t{0}));
}

/// Nearest-rank percentile (q in [0, 1]) of durations, in ms.
double percentile_ms(std::vector<std::int64_t> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::max(0.0, std::ceil(q * static_cast<double>(v.size())) - 1));
  return static_cast<double>(v[std::min(rank, v.size() - 1)]) * 1e-6;
}

void put(LayerMetrics& out, const std::string& name, double value,
         const char* unit) {
  out[name] = {value, unit};
}

/// Runs fn(i) for i in [0, count) on kJobs workers, each worker's spans
/// parented to the calling thread's current span.
void traced_parallel_for(std::size_t count,
                         const std::function<void(std::size_t)>& fn) {
  const std::uint32_t parent = Tracer::current();
  am::util::parallel_for(kJobs, count, [&](std::size_t i) {
    Tracer::adopt(parent);
    fn(i);
  });
  Tracer::adopt(parent);
}

// ----------------------------------------------------------- grid_mixed

// The ROADMAP's headline sweep: 3 protocols x 4 rho x 3 R x n=8 x 4 seeds.
// ca-arrow takes the cohort lockstep path, ao-arrow and rrw the scalar
// fallback inside a cohort.
am::analysis::ExperimentSpec grid_spec(std::uint64_t seed) {
  am::analysis::ExperimentSpec spec;
  spec.protocols = {"ao-arrow", "ca-arrow", "rrw"};
  spec.station_counts = {8};
  spec.bounds_r = {1, 2, 4};
  spec.rho_percents = {30, 50, 70, 90};
  spec.slot_policies = {"perstation"};
  spec.burst_units = 16;
  spec.horizon_units = 100000;
  spec.seed = seed;
  spec.seeds = 4;
  spec.jobs = kJobs;
  spec.cohort = 0;
  return spec;
}

// Digest of run_grid's records for grid_spec(kDefaultSeed).
constexpr const char* kGridDigestSeed1 = "aa0b50ef6a5595db";

std::string records_digest(
    const std::vector<am::analysis::ExperimentRecord>& records) {
  am::snapshot::Writer w;
  for (const auto& r : records) am::analysis::save_record(w, r);
  return fnv1a(w.buffer());
}

class GridWorkload final : public Workload {
 public:
  explicit GridWorkload(const Options& opt) : spec_(grid_spec(opt.seed)) {
    if (!opt.expect_digest.empty())
      pinned_ = opt.expect_digest;
    else if (opt.seed == kDefaultSeed)
      pinned_ = kGridDigestSeed1;
  }

  const char* rate_unit() const override { return "cells/s"; }

  void setup(Tracer* tracer) override {
    const am::analysis::GridPlan plan = am::analysis::plan_grid(spec_);
    for (const auto& cell : plan.cells) {
      am::snapshot::RunSpec rs;
      rs.protocol = cell.protocol;
      rs.n = cell.n;
      rs.bound_r = cell.bound_r;
      rs.slot_policy = cell.slot_policy;
      rs.injector.rho = am::util::Ratio(cell.rho_pct, 100);
      rs.injector.burst_ticks = am::units(spec_.burst_units);
      rs.injector.seed = cell.seed + 1;
      rs.seed = cell.seed;
      rs.horizon_units = spec_.horizon_units;
      const Scope build(tracer, "sim.build");
      auto engine = am::snapshot::build_engine(rs);
    }
  }

  PassResult pass() override {
    PassResult r;
    const auto records =
        timed(r, [&] { return am::analysis::run_grid(spec_); });
    r.ops = check(records);
    r.work = static_cast<double>(records.size());
    return r;
  }

  Ops traced_checks(Tracer& tracer, LayerMetrics& out) override {
    // Every cell again as its own scalar engine (cohort = 1): the records
    // must be byte-identical to the cohort run's.
    am::analysis::ExperimentSpec scalar = spec_;
    scalar.cohort = 1;
    const am::analysis::GridPlan plan = am::analysis::plan_grid(scalar);
    std::vector<am::analysis::ExperimentRecord> records(plan.cells.size());
    const std::uint64_t slots0 = counter("engine.slots");
    const Scope root(&tracer, "grid.cohort1_check");
    traced_parallel_for(plan.cells.size(), [&](std::size_t i) {
      const Scope cell(&tracer, "sim.scalar_cell." + plan.cells[i].protocol);
      records[i] = am::analysis::run_grid_cells(scalar, plan, {i}).front();
    });
    const double slots =
        static_cast<double>(counter("engine.slots") - slots0);
    // Per-protocol busy time without cohorts, beside analysis.busy_s: a
    // protocol whose cohort busy time exceeds this one loses by batching.
    double busy = 0;
    for (const auto& protocol : spec_.protocols) {
      const double ns =
          sum_ns(tracer.durations(root.id(), "sim.scalar_cell." + protocol));
      busy += ns;
      put(out, "analysis.cohort1_busy_s." + protocol, ns * 1e-9, "s");
    }
    put(out, "sim.ns_per_slot", ratio(busy, slots), "ns");
    Ops ops;
    ops.attempted = records.size();
    if (records_digest(records) != first_digest_)
      ops.fail(records.size(), "cohort=1 records differ from run_grid's");
    return ops;
  }

  Ops traced_pass(Tracer& tracer, LayerMetrics& out) override {
    const std::uint32_t root = Tracer::current();
    const std::uint64_t slots0 = counter("engine.slots");
    std::optional<am::analysis::GridPlan> plan;
    {
      const Scope s(&tracer, "analysis.plan_grid");
      plan = am::analysis::plan_grid(spec_);
    }
    std::vector<am::analysis::ExperimentRecord> records(plan->cells.size());
    std::uint32_t parallel = 0;
    {
      const Scope par(&tracer, "analysis.parallel");
      parallel = par.id();
      traced_parallel_for(plan->units.size(), [&](std::size_t ui) {
        const am::analysis::GridUnit& unit = plan->units[ui];
        std::vector<std::size_t> todo(unit.count);
        std::iota(todo.begin(), todo.end(), unit.first);
        const Scope s(&tracer,
                      "analysis.unit." + plan->cells[unit.first].protocol);
        const auto out_records =
            am::analysis::run_grid_cells(spec_, *plan, todo);
        for (std::size_t k = 0; k < todo.size(); ++k)
          records[todo[k]] = out_records[k];
      });
    }
    const double lane_slots =
        static_cast<double>(counter("engine.slots") - slots0);

    std::vector<std::int64_t> units;
    double busy = 0;
    for (const auto& protocol : spec_.protocols) {
      const auto d = tracer.durations(root, "analysis.unit." + protocol);
      units.insert(units.end(), d.begin(), d.end());
      busy += sum_ns(d);
      put(out, "analysis.busy_s." + protocol, sum_ns(d) * 1e-9, "s");
    }
    put(out, "analysis.plan_ms",
        static_cast<double>(tracer.durations(root, "analysis.plan_grid").at(0)) * 1e-6,
        "ms");
    put(out, "analysis.cohort_width",
        am::analysis::grid_cohort_width(spec_), "count");
    put(out, "analysis.unit_ms.p50", percentile_ms(units, 0.5), "ms");
    put(out, "analysis.unit_ms.max", percentile_ms(units, 1.0), "ms");
    put(out, "analysis.worker_idle_share",
        1.0 - busy / (kJobs * static_cast<double>(tracer.duration(parallel))),
        "ratio");
    put(out, "sim.cohort_ns_per_lane_slot", ratio(busy, lane_slots), "ns");

    Ops ops = check(records);
    if (records_digest(records) != first_digest_)
      ops.fail(records.size(), "traced records differ from run_grid's");
    return ops;
  }

 private:
  Ops check(const std::vector<am::analysis::ExperimentRecord>& records) {
    Ops ops;
    const std::size_t cells = plan_size();
    ops.attempted = cells;
    if (records.size() != cells) {
      ops.fail(cells, "run_grid returned " + std::to_string(records.size()) +
                          " records, expected " + std::to_string(cells));
      return ops;
    }
    const std::string digest = records_digest(records);
    if (!pinned_.empty() && digest != pinned_) {
      ops.fail(cells, "records digest " + digest + " != pinned " + pinned_);
      return ops;
    }
    if (first_digest_.empty()) first_digest_ = digest;
    if (digest != first_digest_) {
      ops.fail(cells, "records digest changed between passes");
      return ops;
    }
    // The paper's CA-ARRoW is collision-free, and no protocol delivers a
    // packet it was never given.
    for (const auto& rec : records)
      if ((rec.protocol == "ca-arrow" && rec.collisions != 0) ||
          rec.delivered > rec.injected)
        ops.fail(1, "implausible record for " + rec.protocol);
    return ops;
  }

  std::size_t plan_size() const {
    return spec_.protocols.size() * spec_.station_counts.size() *
           spec_.bounds_r.size() * spec_.rho_percents.size() *
           spec_.slot_policies.size() * static_cast<std::size_t>(spec_.seeds);
  }

  am::analysis::ExperimentSpec spec_;
  std::string pinned_;
  std::string first_digest_;
};

// -------------------------------------------------------- fuzz_campaign

constexpr std::uint64_t kFuzzCases = 8000;
// verify::run_campaign's chunk size between budget checks.
constexpr std::uint64_t kFuzzChunk = 64;

/// verify's cohort-equivalence oracle, rebuilt from public pieces: lane 0
/// replays the scenario, lane 1 rides along with another seed, lane 2
/// stops mid-horizon and resumes, lane 3 runs halved rho and longer
/// bursts; lanes 0, 2 and 3 must match their scalar twins' state bytes.
bool cohort_equivalent(const am::verify::Scenario& s,
                       const am::sim::Engine& scalar) {
  am::snapshot::Writer scalar_bytes;
  scalar.save_state(scalar_bytes);
  am::verify::Scenario varied = s;
  varied.injector.rho =
      am::util::Ratio(varied.injector.rho.num, varied.injector.rho.den * 2);
  varied.injector.burst_ticks += 4 * am::kTicksPerUnit;
  am::snapshot::Writer varied_bytes;
  am::verify::run_scenario(varied)->save_state(varied_bytes);

  std::vector<am::sim::LaneBuilder> builders;
  builders.push_back([s] { return am::verify::scenario_materials(s); });
  builders.push_back(
      [s] { return am::verify::scenario_materials(s, s.seed + 1); });
  builders.push_back([s] { return am::verify::scenario_materials(s); });
  builders.push_back([varied] { return am::verify::scenario_materials(varied); });
  am::sim::CohortEngine cohort(std::move(builders));
  const am::Tick horizon = s.horizon_units * am::kTicksPerUnit;
  std::vector<am::sim::StopCondition> stops(4, am::sim::until(horizon));
  stops[2] = am::sim::until(horizon / 2);
  cohort.run(stops);
  cohort.run(am::sim::until(horizon));
  for (const std::size_t lane : {std::size_t{0}, std::size_t{2}, std::size_t{3}}) {
    am::snapshot::Writer lane_bytes;
    cohort.save_lane_state(lane, lane_bytes);
    if (lane_bytes.buffer() !=
        (lane == 3 ? varied_bytes : scalar_bytes).buffer())
      return false;
  }
  return true;
}

class FuzzWorkload final : public Workload {
 public:
  explicit FuzzWorkload(const Options& opt) : seed_(opt.seed) {}

  const char* rate_unit() const override { return "cases/s"; }

  void setup(Tracer* tracer) override {
    const am::verify::ScenarioGen gen(seed_);
    for (std::uint64_t i = 0; i < kFuzzCases; ++i) {
      const am::verify::Scenario s = gen.generate(i);
      const Scope build(tracer, "sim.build");
      auto engine = am::verify::build_engine(s);
    }
  }

  PassResult pass() override {
    am::verify::CampaignConfig cfg;
    cfg.seed = seed_;
    cfg.cases = kFuzzCases;
    cfg.jobs = kJobs;
    cfg.shrink = true;
    PassResult r;
    const auto result =
        timed(r, [&] { return am::verify::run_campaign(cfg); });
    r.ops.attempted = kFuzzCases;
    r.work = static_cast<double>(result.cases_run);
    if (!result.failures.empty())
      r.ops.fail(result.failures.size(),
                 "campaign violations: " + result.failures.front().verdict.violation);
    if (result.cases_run != kFuzzCases)
      r.ops.fail(kFuzzCases - std::min(kFuzzCases, result.cases_run),
                 "cases_run " + std::to_string(result.cases_run) + " != " +
                     std::to_string(kFuzzCases));
    return r;
  }

  Ops traced_checks(Tracer&, LayerMetrics&) override { return {}; }

  Ops traced_pass(Tracer& tracer, LayerMetrics& out) override {
    const std::uint32_t root = Tracer::current();
    const am::verify::ScenarioGen gen(seed_);
    std::atomic<std::uint64_t> failed{0};
    std::atomic<std::uint64_t> scenario_slots{0};
    for (std::uint64_t first = 0; first < kFuzzCases; first += kFuzzChunk) {
      const std::uint64_t count = std::min(kFuzzChunk, kFuzzCases - first);
      const Scope par(&tracer, "verify.parallel");
      traced_parallel_for(static_cast<std::size_t>(count), [&](std::size_t i) {
        const Scope c(&tracer, "verify.case");
        if (!run_case(tracer, gen, first + i, scenario_slots)) ++failed;
      });
    }

    const auto cases = tracer.durations(root, "verify.case");
    const auto self = tracer.self_times(root);
    auto total_ms = [&](const char* name) {
      return sum_ns(tracer.durations(root, name)) * 1e-6;
    };
    put(out, "verify.case_ms.p50", percentile_ms(cases, 0.5), "ms");
    put(out, "verify.case_ms.p99", percentile_ms(cases, 0.99), "ms");
    put(out, "verify.scenario_ms", total_ms("verify.scenario"), "ms");
    put(out, "trace.invariants_ms", total_ms("trace.invariants"), "ms");
    put(out, "verify.oracle_ms", total_ms("verify.oracle"), "ms");
    put(out, "verify.ledger_history_ms", total_ms("verify.ledger_history"), "ms");
    put(out, "verify.cohort_equiv_ms", total_ms("verify.cohort_equiv"), "ms");
    put(out, "verify.residual_ms",
        self.count("verify.case") ? self.at("verify.case") * 1e-6 : 0.0, "ms");
    put(out, "verify.gen_us",
        total_ms("verify.gen") * 1e3 / static_cast<double>(kFuzzCases), "us");
    put(out, "sim.ns_per_slot",
        ratio(sum_ns(tracer.durations(root, "sim.run")),
              static_cast<double>(scenario_slots.load())),
        "ns");
    put(out, "analysis.worker_idle_share",
        1.0 - sum_ns(cases) /
                  (kJobs * sum_ns(tracer.durations(root, "verify.parallel"))),
        "ratio");

    Ops ops;
    ops.attempted = kFuzzCases;
    if (failed.load() != 0)
      ops.fail(failed.load(), "traced cases failed their checks");
    return ops;
  }

 private:
  /// verify::run_case, rebuilt from the public checks it composes.
  static bool run_case(Tracer& tracer, const am::verify::ScenarioGen& gen,
                       std::uint64_t index,
                       std::atomic<std::uint64_t>& scenario_slots) {
    try {
      std::optional<am::verify::Scenario> s;
      {
        const Scope g(&tracer, "verify.gen");
        s = gen.generate(index);
      }
      std::unique_ptr<am::sim::Engine> engine;
      {
        const Scope sc(&tracer, "verify.scenario");
        {
          const Scope b(&tracer, "sim.build");
          engine = am::verify::build_engine(*s);
        }
        const Scope run(&tracer, "sim.run");
        engine->run(am::sim::until(s->horizon_units * am::kTicksPerUnit));
      }
      scenario_slots += engine->stats().total_slots;
      const auto& slots = engine->trace().slots();
      const am::channel::RestrainedSpec restrained =
          engine->ledger().restrained();
      {
        const Scope t(&tracer, "trace.invariants");
        if (!am::trace::check_slot_contiguity(slots)) return false;
        if (!am::trace::check_feedback_consistency(slots, restrained))
          return false;
      }
      {
        const Scope o(&tracer, "verify.oracle");
        if (!am::verify::check_channel_oracle(slots, restrained)) return false;
      }
      {
        const Scope h(&tracer, "verify.ledger_history");
        if (!am::verify::check_ledger_history(*engine)) return false;
      }
      if (s->protocol == "ca-arrow") {
        const Scope t(&tracer, "trace.invariants");
        const auto txs = am::trace::transmissions_of(slots);
        if (!am::trace::check_no_overlaps(txs)) return false;
        if (!am::trace::check_cyclic_turn_order(txs, s->n)) return false;
      }
      const Scope q(&tracer, "verify.cohort_equiv");
      return cohort_equivalent(*s, *engine);
    } catch (const std::exception&) {
      return false;
    }
  }

  std::uint64_t seed_;
};

// --------------------------------------------------------- live_virtual

am::snapshot::RunSpec live_spec(std::uint64_t seed) {
  am::snapshot::RunSpec spec;
  spec.protocol = "ca-arrow";
  spec.n = 8;
  spec.bound_r = 2;
  spec.slot_policy = "perstation";
  spec.injector.kind = "saturating";
  spec.injector.pattern = "roundrobin";
  spec.injector.rho = am::util::Ratio(7, 10);
  spec.injector.burst_ticks = am::units(16);
  spec.injector.seed = seed + 1;
  spec.seed = seed;
  spec.horizon_units = 100000;
  spec.record_trace = true;
  return spec;
}

constexpr int kLiveChunks = 8;  // live::VirtualRunOptions' default

/// What a run must reproduce: the sim::Engine run of the same RunSpec.
struct LiveReference {
  std::string stats_json;
  std::string trace;
  std::vector<am::Tick> samples;
  std::uint64_t slots = 0;
  double run_ns = 0;
};

LiveReference live_reference(const am::snapshot::RunSpec& spec,
                             Tracer* tracer) {
  LiveReference ref;
  auto engine = am::snapshot::build_engine(spec);
  const am::Tick step = am::units(spec.horizon_units) / kLiveChunks;
  const std::int64_t t0 = now_ns();
  {
    const Scope run(tracer, "sim.run");
    for (int k = 1; k <= kLiveChunks; ++k) {
      engine->run(am::sim::until(k * step));
      ref.samples.push_back(engine->stats().queued_cost);
    }
  }
  ref.run_ns = static_cast<double>(now_ns() - t0);
  ref.stats_json =
      am::metrics::to_json(engine->stats(), &engine->channel_stats());
  ref.trace = am::trace::serialize_trace({spec.n, spec.bound_r},
                                         engine->trace().slots());
  ref.slots = engine->stats().total_slots;
  return ref;
}

class LiveWorkload final : public Workload {
 public:
  explicit LiveWorkload(const Options& opt)
      : spec_(live_spec(opt.seed)), ref_(live_reference(spec_, nullptr)) {}

  const char* rate_unit() const override { return "slots/s"; }

  void setup(Tracer* tracer) override {
    {
      const Scope build(tracer, "sim.build");
      auto engine = am::snapshot::build_engine(spec_);
    }
    am::live::Daemon daemon(daemon_config());
    auto stations = make_stations();
  }

  PassResult pass() override {
    PassResult r;
    const auto report =
        timed(r, [&] { return am::live::run_virtual(spec_); });
    r.ops = check(report);
    r.work = static_cast<double>(report.stats.total_slots);
    live_ns_per_slot_ = ratio(r.wall_s * 1e9, r.work);
    return r;
  }

  Ops traced_checks(Tracer& tracer, LayerMetrics& out) override {
    const Scope root(&tracer, "live.reference");
    const LiveReference ref = live_reference(spec_, &tracer);
    const double sim_ns = ratio(ref.run_ns, static_cast<double>(ref.slots));
    put(out, "sim.ns_per_slot", sim_ns, "ns");
    put(out, "live.ns_per_slot", live_ns_per_slot_, "ns");
    put(out, "live.overhead_x", ratio(live_ns_per_slot_, sim_ns), "ratio");
    Ops ops;
    ops.attempted = 1;
    if (ref.stats_json != ref_.stats_json || ref.trace != ref_.trace)
      ops.fail(1, "sim::Engine reference is not deterministic");
    return ops;
  }

  Ops traced_pass(Tracer& tracer, LayerMetrics& out) override {
    const std::uint32_t root = Tracer::current();
    am::live::Daemon daemon(daemon_config());
    auto stations = make_stations();
    Accumulators acc;
    const bool finished = drive(daemon, stations, acc);
    tracer.add_inner(root, "live.daemon", acc.daemon_ns);
    tracer.add_inner(root, "live.station", acc.station_ns);
    tracer.add_inner(root, "live.wire", acc.wire_ns);

    am::live::VirtualRunReport report;
    report.completed = finished;
    for (const auto& s : stations)
      report.station_exit_max = std::max(report.station_exit_max, s->exit_code());
    report.daemon_failed = daemon.failed();
    report.reason = daemon.reason();
    report.stats = daemon.stats();
    report.channel = daemon.live_channel_stats();
    report.trace = daemon.trace().slots();
    report.samples = daemon.backlog_samples();

    const double slots = static_cast<double>(report.stats.total_slots);
    put(out, "sim.slots", slots, "count");
    put(out, "live.daemon_ms", static_cast<double>(acc.daemon_ns) * 1e-6, "ms");
    put(out, "live.station_ms", static_cast<double>(acc.station_ns) * 1e-6, "ms");
    put(out, "live.wire_ms", static_cast<double>(acc.wire_ns) * 1e-6, "ms");
    put(out, "live.datagrams_per_slot",
        ratio(static_cast<double>(counter("live.datagrams_tx") +
                                  counter("live.datagrams_rx")),
              slots),
        "ratio");
    Ops ops = check(report);
    if (!ops.problems.empty())
      ops.problems.push_back("the benchmark's live driver diverged from run_virtual");
    return ops;
  }

 private:
  struct Accumulators {
    std::int64_t daemon_ns = 0;
    std::int64_t station_ns = 0;
    std::int64_t wire_ns = 0;
  };

  am::live::DaemonConfig daemon_config() const {
    am::live::DaemonConfig dc;
    dc.spec = spec_;
    dc.chunks = kLiveChunks;
    return dc;
  }

  std::vector<std::unique_ptr<am::live::StationMachine>> make_stations() const {
    std::vector<std::unique_ptr<am::live::StationMachine>> out;
    for (am::StationId id = 1; id <= spec_.n; ++id) {
      am::live::StationConfig sc;
      sc.id = id;
      sc.name = "station-" + std::to_string(id);
      out.push_back(std::make_unique<am::live::StationMachine>(sc));
    }
    return out;
  }

  /// live::VirtualNet::run with zero emulation knobs: every datagram is
  /// delivered at its send tick, so pending datagrams always sit at the
  /// current tick and the (time, seq) heap is a FIFO. Times each call into
  /// the daemon and the stations, and decodes + re-encodes every carried
  /// datagram once to time the wire codec on the pass's real traffic.
  static bool drive(am::live::Daemon& daemon,
                    std::vector<std::unique_ptr<am::live::StationMachine>>& st,
                    Accumulators& acc) {
    struct Datagram {
      am::StationId station;
      bool to_station;
      std::vector<std::uint8_t> bytes;
    };
    std::deque<Datagram> queue;
    std::vector<std::optional<am::Tick>> timers(st.size());
    auto apply = [&](am::StationId id, am::live::StationMachine::Actions a) {
      for (auto& bytes : a.sends) queue.push_back({id, false, std::move(bytes)});
      timers[id - 1] = a.finished ? std::nullopt : a.timer;
    };
    auto wire = [&](const std::vector<std::uint8_t>& bytes) {
      const std::int64_t t0 = now_ns();
      const auto encoded = am::live::encode(am::live::decode(bytes));
      acc.wire_ns += now_ns() - t0;
      if (encoded != bytes)
        throw std::runtime_error("live wire codec does not round-trip");
    };
    auto station_call = [&](am::StationId id, auto&& call) {
      const std::int64_t t0 = now_ns();
      auto actions = call(*st[id - 1]);
      acc.station_ns += now_ns() - t0;
      apply(id, std::move(actions));
    };

    for (am::StationId id = 1; id <= st.size(); ++id)
      station_call(id, [](am::live::StationMachine& m) { return m.on_start(0); });

    constexpr std::uint64_t kMaxEvents = 50'000'000;
    std::uint64_t processed = 0;
    am::Tick now = 0;
    bool daemon_done = false;
    while (processed < kMaxEvents) {
      if (daemon_done &&
          std::all_of(st.begin(), st.end(),
                      [](const auto& m) { return m->finished(); }))
        return true;
      am::Tick next = queue.empty() ? am::kTickInfinity : now;
      for (const auto& t : timers)
        if (t && *t < next) next = *t;
      if (next == am::kTickInfinity) return false;
      now = next;

      bool progressed = true;
      while (progressed && processed < kMaxEvents) {
        progressed = false;
        while (!queue.empty() && queue.front().to_station) {
          Datagram d = std::move(queue.front());
          queue.pop_front();
          ++processed;
          progressed = true;
          wire(d.bytes);
          station_call(d.station, [&](am::live::StationMachine& m) {
            return m.on_datagram(now, d.bytes);
          });
        }
        for (am::StationId id = 1; id <= st.size(); ++id) {
          auto& t = timers[id - 1];
          if (t && *t <= now) {
            t.reset();
            ++processed;
            progressed = true;
            station_call(id, [&](am::live::StationMachine& m) {
              return m.on_timer(now);
            });
          }
        }
        if (!queue.empty() && !queue.front().to_station) {
          std::vector<std::vector<std::uint8_t>> batch;
          while (!queue.empty() && !queue.front().to_station) {
            wire(queue.front().bytes);
            batch.push_back(std::move(queue.front().bytes));
            queue.pop_front();
          }
          ++processed;
          progressed = true;
          const std::int64_t t0 = now_ns();
          am::live::DaemonActions acts = daemon.on_batch(now, batch);
          acc.daemon_ns += now_ns() - t0;
          if (acts.done) daemon_done = true;
          for (auto& s : acts.sends)
            queue.push_back({s.to, true, std::move(s.datagram)});
        }
      }
    }
    return false;
  }

  Ops check(const am::live::VirtualRunReport& report) const {
    Ops ops;
    ops.attempted = 1;
    if (!report.completed || report.station_exit_max != 0 ||
        report.daemon_failed)
      ops.fail(1, "live run did not complete cleanly: " + report.reason);
    else if (am::metrics::to_json(report.stats, &report.channel) !=
             ref_.stats_json)
      ops.fail(1, "live stats differ from the sim::Engine run");
    else if (am::trace::serialize_trace({spec_.n, spec_.bound_r},
                                        report.trace) != ref_.trace)
      ops.fail(1, "live trace differs from the sim::Engine run");
    else if (report.samples != ref_.samples)
      ops.fail(1, "live backlog samples differ from the sim::Engine run");
    return ops;
  }

  am::snapshot::RunSpec spec_;
  LiveReference ref_;
  double live_ns_per_slot_ = 0;
};

// ----------------------------------------------------------- msr_search

struct MsrPin {
  const char* protocol;
  int msr_pct;  ///< pinned for kDefaultSeed
  int probes;
};
// estimate_msr results for kDefaultSeed.
constexpr MsrPin kMsrPins[] = {{"aloha", 32, 27}, {"ao-arrow", 98, 27}};

class MsrWorkload final : public Workload {
 public:
  explicit MsrWorkload(const Options& opt) : seed_(opt.seed) {
    config_.probe.horizon = am::units(100000);
    config_.seeds = 3;
    config_.jobs = kJobs;
    config_.base_seed = seed_;
  }

  const char* rate_unit() const override { return "probes/s"; }

  void setup(Tracer* tracer) override {
    // The engines of each search's two bracketing probes.
    for (const MsrPin& pin : kMsrPins) {
      const auto factory = make_factory(pin.protocol);
      for (const int pct : {config_.lo_pct, config_.hi_pct})
        for (int s = 0; s < config_.seeds; ++s) {
          const Scope build(tracer, "sim.build");
          auto engine = factory(am::util::Ratio(pct, 100),
                                config_.base_seed + static_cast<std::uint64_t>(s));
        }
    }
  }

  PassResult pass() override {
    PassResult r;
    const auto results = timed(r, [&] {
      std::vector<am::analysis::MsrResult> out;
      for (const MsrPin& pin : kMsrPins)
        out.push_back(
            am::analysis::estimate_msr(make_factory(pin.protocol), config_));
      return out;
    });
    r.ops = check(results);
    for (const auto& res : results) r.work += res.probes;
    return r;
  }

  Ops traced_checks(Tracer&, LayerMetrics&) override { return {}; }

  Ops traced_pass(Tracer& tracer, LayerMetrics& out) override {
    const std::uint32_t root = Tracer::current();
    const std::uint64_t slots0 = counter("engine.slots");
    std::vector<am::analysis::MsrResult> results;
    for (const MsrPin& pin : kMsrPins) {
      const Scope m(&tracer, "analysis.msr");
      results.push_back(search(tracer, make_factory(pin.protocol)));
    }
    const double slots =
        static_cast<double>(counter("engine.slots") - slots0);
    int probes = 0;
    for (const auto& res : results) probes += res.probes;
    put(out, "analysis.probes", probes, "count");
    put(out, "analysis.probe_ms.p50",
        percentile_ms(tracer.durations(root, "analysis.probe"), 0.5), "ms");
    put(out, "sim.ns_per_slot",
        ratio(sum_ns(tracer.durations(root, "sim.run")), slots), "ns");
    put(out, "analysis.worker_idle_share",
        1.0 - sum_ns(tracer.durations(root, "analysis.seed_probe")) /
                  (kJobs * sum_ns(tracer.durations(root, "analysis.parallel"))),
        "ratio");
    return check(results);
  }

 private:
  am::analysis::RateEngineFactory make_factory(const std::string& protocol) const {
    am::snapshot::RunSpec base;
    base.protocol = protocol;
    base.n = 8;
    base.bound_r = 2;
    base.slot_policy = "perstation";
    base.injector.kind = "saturating";
    base.injector.pattern = "roundrobin";
    base.injector.burst_ticks = am::units(16);
    return [base](am::util::Ratio rho, std::uint64_t seed) {
      am::snapshot::RunSpec spec = base;
      spec.injector.rho = rho;
      spec.injector.seed = seed + 1;
      spec.seed = seed;
      return am::snapshot::build_engine(spec);
    };
  }

  /// analysis::estimate_msr, rebuilt from analysis::probe_stability's
  /// pieces so each probe, engine build and engine run gets its span.
  am::analysis::MsrResult search(Tracer& tracer,
                                 const am::analysis::RateEngineFactory& factory) {
    am::analysis::MsrResult result;
    auto stable = [&](int pct) {
      const Scope p(&tracer, "analysis.probe");
      const am::util::Ratio rho(pct, 100);
      std::vector<char> votes(static_cast<std::size_t>(config_.seeds), 0);
      {
        const Scope par(&tracer, "analysis.parallel");
        traced_parallel_for(votes.size(), [&](std::size_t s) {
          const Scope sp(&tracer, "analysis.seed_probe");
          std::unique_ptr<am::sim::Engine> engine;
          {
            const Scope b(&tracer, "sim.build");
            engine = factory(rho, config_.base_seed + s);
          }
          const am::analysis::StabilityConfig& pc = config_.probe;
          const am::Tick step = pc.horizon / pc.chunks;
          std::vector<am::Tick> samples;
          for (int c = 1; c <= pc.chunks; ++c) {
            {
              const Scope run(&tracer, "sim.run");
              engine->run(am::sim::until(step * c));
            }
            samples.push_back(engine->stats().queued_cost);
            if (engine->stats().queued_cost > pc.ceiling) break;
          }
          const Scope cl(&tracer, "analysis.classify");
          votes[s] = am::analysis::classify_backlog_samples(samples, pc) ==
                     am::analysis::Verdict::kStable;
        });
      }
      result.probes += config_.seeds;
      return 2 * std::count(votes.begin(), votes.end(), char{1}) > config_.seeds;
    };
    if (!stable(config_.lo_pct)) return result;
    if (stable(config_.hi_pct)) {
      result.msr_pct = config_.hi_pct;
      return result;
    }
    int lo = config_.lo_pct, hi = config_.hi_pct;
    while (hi - lo > 1) {
      const int mid = (lo + hi) / 2;
      (stable(mid) ? lo : hi) = mid;
    }
    result.msr_pct = lo;
    return result;
  }

  static bool same(const std::vector<am::analysis::MsrResult>& a,
                   const std::vector<am::analysis::MsrResult>& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                      [](const auto& x, const auto& y) {
                        return x.msr_pct == y.msr_pct && x.probes == y.probes;
                      });
  }

  Ops check(const std::vector<am::analysis::MsrResult>& results) {
    Ops ops;
    ops.attempted = results.size();
    for (std::size_t i = 0; i < results.size(); ++i) {
      const MsrPin& pin = kMsrPins[i];
      const am::analysis::MsrResult& res = results[i];
      const std::string got = std::string(pin.protocol) + " MSR " +
                              std::to_string(res.msr_pct) + "% in " +
                              std::to_string(res.probes) + " probes";
      if (seed_ == kDefaultSeed &&
          (res.msr_pct != pin.msr_pct || res.probes != pin.probes))
        ops.fail(1, got + ", pinned " + std::to_string(pin.msr_pct) + "% in " +
                        std::to_string(pin.probes));
      // AO-ARRoW is stable at every rho < 1 (the paper's Theorem 3).
      else if (pin.protocol == std::string("ao-arrow") && res.msr_pct < 90)
        ops.fail(1, got + ", expected >= 90%");
    }
    if (first_.empty()) first_ = results;
    else if (!same(results, first_))
      ops.fail(results.size(), "MSR results changed between passes");
    return ops;
  }

  std::uint64_t seed_;
  am::analysis::MsrConfig config_;
  std::vector<am::analysis::MsrResult> first_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "grid_mixed", "fuzz_campaign", "live_virtual", "msr_search"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Options& opt) {
  if (name == "grid_mixed") return std::make_unique<GridWorkload>(opt);
  if (name == "fuzz_campaign") return std::make_unique<FuzzWorkload>(opt);
  if (name == "live_virtual") return std::make_unique<LiveWorkload>(opt);
  if (name == "msr_search") return std::make_unique<MsrWorkload>(opt);
  throw std::invalid_argument("unknown workload: " + name);
}

}  // namespace e2ebench
