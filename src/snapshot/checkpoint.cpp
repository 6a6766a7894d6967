#include "snapshot/checkpoint.h"

#include <cstdio>
#include <filesystem>
#include <stdexcept>

#include "adversary/slot_policies.h"
#include "analysis/registry.h"
#include "util/check.h"

namespace asyncmac::snapshot {

namespace {

void save_injector_spec(Writer& w, const adversary::InjectorSpec& spec) {
  w.str(spec.kind);
  w.i64(spec.rho.num);
  w.i64(spec.rho.den);
  w.i64(spec.burst_ticks);
  w.str(spec.pattern);
  w.u32(spec.single_target);
  w.i64(spec.period_ticks);
  w.u32(spec.drain_a);
  w.u32(spec.drain_b);
  w.u64(spec.seed);
}

adversary::InjectorSpec load_injector_spec(Reader& r) {
  adversary::InjectorSpec spec;
  spec.kind = r.str();
  const std::int64_t num = r.i64();
  const std::int64_t den = r.i64();
  if (num < 0 || den <= 0)
    throw SnapshotError(ErrorKind::kCorrupt, "invalid injection rate ratio");
  spec.rho = util::Ratio(num, den);
  spec.burst_ticks = r.i64();
  spec.pattern = r.str();
  spec.single_target = r.u32();
  spec.period_ticks = r.i64();
  spec.drain_a = r.u32();
  spec.drain_b = r.u32();
  spec.seed = r.u64();
  return spec;
}

}  // namespace

void save_channel_variant(Writer& w, const channel::RestrainedSpec& restrained,
                          const energy::EnergyModel& energy) {
  w.u32(restrained.k);
  w.boolean(restrained.jam);
  w.boolean(energy.enabled);
  w.u64(energy.cost_transmit);
  w.u64(energy.cost_listen);
  w.u64(energy.cost_sleep);
}

void load_channel_variant(Reader& r, channel::RestrainedSpec& restrained,
                          energy::EnergyModel& energy) {
  restrained.k = r.u32();
  restrained.jam = r.boolean();
  energy.enabled = r.boolean();
  energy.cost_transmit = r.u64();
  energy.cost_listen = r.u64();
  energy.cost_sleep = r.u64();
}

void save_run_spec(Writer& w, const RunSpec& spec) {
  w.str(spec.protocol);
  w.u32(spec.n);
  w.u32(spec.bound_r);
  w.str(spec.slot_policy);
  w.boolean(spec.has_injector);
  save_injector_spec(w, spec.injector);
  w.u64(spec.seed);
  w.i64(spec.horizon_units);
  w.boolean(spec.keep_channel_history);
  w.boolean(spec.record_trace);
  w.boolean(spec.record_deliveries);
  w.boolean(spec.allow_control);
  w.u64(spec.prune_interval);
  w.u64(spec.checkpoint_interval);
  save_channel_variant(w, spec.restrained, spec.energy);
}

RunSpec load_run_spec(Reader& r) {
  RunSpec spec;
  spec.protocol = r.str();
  spec.n = r.u32();
  spec.bound_r = r.u32();
  spec.slot_policy = r.str();
  spec.has_injector = r.boolean();
  spec.injector = load_injector_spec(r);
  spec.seed = r.u64();
  spec.horizon_units = r.i64();
  spec.keep_channel_history = r.boolean();
  spec.record_trace = r.boolean();
  spec.record_deliveries = r.boolean();
  spec.allow_control = r.boolean();
  spec.prune_interval = r.u64();
  spec.checkpoint_interval = r.u64();
  load_channel_variant(r, spec.restrained, spec.energy);
  if (spec.n < 1 || spec.bound_r < 1 || spec.prune_interval < 1)
    throw SnapshotError(ErrorKind::kCorrupt,
                        "run spec violates engine invariants");
  return spec;
}

sim::LaneMaterials build_materials(const RunSpec& spec) {
  sim::LaneMaterials m;
  m.cfg.n = spec.n;
  m.cfg.bound_r = spec.bound_r;
  m.cfg.seed = spec.seed;
  m.cfg.keep_channel_history = spec.keep_channel_history;
  m.cfg.record_trace = spec.record_trace;
  m.cfg.record_deliveries = spec.record_deliveries;
  m.cfg.allow_control = spec.allow_control;
  m.cfg.prune_interval = spec.prune_interval;
  m.cfg.checkpoint_interval = spec.checkpoint_interval;
  m.cfg.restrained = spec.restrained;
  m.cfg.energy = spec.energy;
  m.protocols = analysis::make_protocols(spec.protocol, spec.n);
  m.slot_policy = adversary::make_slot_policy(spec.slot_policy, spec.n,
                                              spec.bound_r, spec.seed);
  if (spec.has_injector) m.injection = adversary::make_injector(spec.injector);
  return m;
}

std::unique_ptr<sim::Engine> build_engine(const RunSpec& spec) {
  sim::LaneMaterials m = build_materials(spec);
  return std::make_unique<sim::Engine>(std::move(m.cfg), std::move(m.protocols),
                                       std::move(m.slot_policy),
                                       std::move(m.injection));
}

std::vector<std::uint8_t> encode_checkpoint(const RunSpec& spec,
                                            const sim::Engine& engine) {
  Writer w;
  save_run_spec(w, spec);
  engine.save_state(w);
  return w.take();
}

void write_checkpoint(const std::string& path, const RunSpec& spec,
                      const sim::Engine& engine) {
  const auto payload = encode_checkpoint(spec, engine);
  write_file(path, FileKind::kEngineRun, payload);
}

ResumedRun decode_checkpoint(const std::vector<std::uint8_t>& payload) {
  Reader r(payload);
  ResumedRun run;
  run.spec = load_run_spec(r);
  try {
    run.engine = build_engine(run.spec);
  } catch (const std::invalid_argument& e) {
    // Unknown registry names mean the snapshot came from a build with
    // protocols/policies this binary does not ship.
    throw SnapshotError(ErrorKind::kMismatch,
                        std::string("cannot rebuild run: ") + e.what());
  }
  run.engine->load_state(r);
  r.expect_end();
  return run;
}

ResumedRun resume_checkpoint(const std::string& path) {
  return decode_checkpoint(read_file(path, FileKind::kEngineRun));
}

AutoSaver::AutoSaver(std::string dir, RunSpec spec, std::size_t retention)
    : dir_(std::move(dir)), spec_(std::move(spec)), retention_(retention) {
  AM_REQUIRE(retention_ >= 1, "checkpoint retention must be >= 1");
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec)
    throw SnapshotError(ErrorKind::kIo,
                        "cannot create checkpoint directory " + dir_ + ": " +
                            ec.message());
}

void AutoSaver::save(const sim::Engine& engine) {
  char name[32];
  std::snprintf(name, sizeof(name), "ckpt-%06llu.snap",
                static_cast<unsigned long long>(counter_++));
  const std::string path = dir_ + "/" + name;
  write_checkpoint(path, spec_, engine);
  files_.push_back(path);
  while (files_.size() > retention_) {
    std::remove(files_.front().c_str());
    files_.erase(files_.begin());
  }
}

}  // namespace asyncmac::snapshot
