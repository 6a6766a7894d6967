#include "sweep/worker.h"

#include <exception>
#include <utility>

#include "verify/campaign.h"
#include "verify/scenario.h"

namespace asyncmac::sweep {

namespace {

using snapshot::SnapshotError;

}  // namespace

WorkerSession::WorkerSession() : WorkerSession(Config{}) {}

WorkerSession::WorkerSession(Config cfg)
    : WorkerSession(std::move(cfg), default_executor()) {}

WorkerSession::WorkerSession(Config cfg, Executor exec)
    : cfg_(std::move(cfg)), exec_(std::move(exec)) {}

WorkerSession::Executor WorkerSession::default_executor() {
  return [](const Context& ctx, const AssignMsg& a) {
    if (ctx.job->kind == JobKind::kGrid) {
      std::vector<std::size_t> todo;
      todo.reserve(static_cast<std::size_t>(a.count));
      for (std::uint64_t i = 0; i < a.count; ++i)
        todo.push_back(static_cast<std::size_t>(a.first + i));
      return encode_grid_result(
          analysis::run_grid_cells(ctx.job->grid, *ctx.plan, todo));
    }
    // Fuzz unit: per-case verdicts, exactly as verify::run_campaign
    // computes them (same generator, same run_case — byte-identical).
    verify::ScenarioGen gen(ctx.job->fuzz.seed, ctx.job->fuzz.protocols);
    std::vector<verify::CaseVerdict> verdicts;
    verdicts.reserve(static_cast<std::size_t>(a.count));
    for (std::uint64_t i = 0; i < a.count; ++i) {
      const std::uint64_t index = a.first + i;
      const verify::Scenario s = gen.generate(index);
      const trace::CheckResult check = verify::run_case(s);
      verify::CaseVerdict v;
      v.index = index;
      v.case_seed = s.case_seed;
      v.ok = check.ok;
      v.violation = check.what;
      verdicts.push_back(std::move(v));
    }
    return encode_fuzz_result(verdicts);
  };
}

std::vector<std::vector<std::uint8_t>> WorkerSession::start(
    std::uint64_t /*now_ms*/) {
  HelloMsg hello;
  hello.worker_name = cfg_.name;
  return {to_frame(hello)};
}

std::vector<std::vector<std::uint8_t>> WorkerSession::on_bytes(
    const std::uint8_t* data, std::size_t n, std::uint64_t now_ms) {
  if (finished_ || failed_) return {};
  std::vector<std::vector<std::uint8_t>> out;
  try {
    decoder_.feed(data, n);
    while (auto f = decoder_.next()) {
      auto frames = handle(decode_message(*f), now_ms);
      out.insert(out.end(), std::make_move_iterator(frames.begin()),
                 std::make_move_iterator(frames.end()));
      if (finished_ || failed_) break;
    }
  } catch (const SnapshotError& e) {
    fail(std::string("wire error: ") + e.what());
  }
  return out;
}

std::vector<std::vector<std::uint8_t>> WorkerSession::on_tick(
    std::uint64_t now_ms) {
  if (finished_ || failed_ || !welcomed()) return {};
  std::vector<std::vector<std::uint8_t>> out;
  if (now_ms >= next_heartbeat_ms_) {
    HeartbeatMsg hb;
    hb.worker_id = worker_id_;
    out.push_back(to_frame(hb));
    next_heartbeat_ms_ = now_ms + heartbeat_ms_;
  }
  if (retry_at_ms_ != 0 && now_ms >= retry_at_ms_) {
    retry_at_ms_ = 0;
    RequestWorkMsg req;
    req.worker_id = worker_id_;
    out.push_back(to_frame(req));
  }
  return out;
}

void WorkerSession::on_eof() {
  if (!finished_) fail("coordinator closed the connection");
}

std::vector<std::vector<std::uint8_t>> WorkerSession::handle(
    const Message& msg, std::uint64_t now_ms) {
  std::vector<std::vector<std::uint8_t>> out;
  if (const auto* welcome = std::get_if<WelcomeMsg>(&msg)) {
    if (welcomed()) {
      fail("duplicate welcome");
      return out;
    }
    worker_id_ = welcome->worker_id;
    heartbeat_ms_ = welcome->heartbeat_ms == 0 ? 1000 : welcome->heartbeat_ms;
    job_ = welcome->job;
    fingerprint_ = job_fingerprint(job_);
    if (job_.kind == JobKind::kGrid) {
      // Planning builds a cell per block (lockstep eligibility), so an
      // unknown protocol or policy name surfaces here.
      try {
        plan_ = analysis::plan_grid(job_.grid);
      } catch (const std::exception& e) {
        fail(std::string("cannot plan the grid: ") + e.what());
        return out;
      }
    }
    next_heartbeat_ms_ = now_ms + heartbeat_ms_;
    RequestWorkMsg req;
    req.worker_id = worker_id_;
    out.push_back(to_frame(req));
    return out;
  }
  // Shutdown is honored even before Welcome: a worker that joins a
  // sweep already complete is dismissed with a single frame.
  if (std::get_if<ShutdownMsg>(&msg)) {
    finished_ = true;
    return out;
  }
  if (!welcomed()) {
    fail("message before welcome");
    return out;
  }
  if (const auto* assign = std::get_if<AssignMsg>(&msg)) {
    // Cross-check the unit identity against the locally reconstructed
    // job — a coordinator/worker fingerprint disagreement means the two
    // sides are not looking at the same sweep.
    if (assign->unit_id != work_unit_id(fingerprint_, assign->unit_index)) {
      fail("assignment unit id does not match the job");
      return out;
    }
    Context ctx;
    ctx.job = &job_;
    ctx.plan = job_.kind == JobKind::kGrid ? &plan_ : nullptr;
    ResultMsg res;
    res.worker_id = worker_id_;
    res.lease_id = assign->lease_id;
    res.unit_index = assign->unit_index;
    res.unit_id = assign->unit_id;
    try {
      res.payload = exec_(ctx, *assign);
    } catch (const std::exception& e) {
      fail(std::string("executor failed: ") + e.what());
      return out;
    }
    out.push_back(to_frame(res));
    return out;
  }
  if (std::get_if<ResultAckMsg>(&msg)) {
    ++units_completed_;
    RequestWorkMsg req;
    req.worker_id = worker_id_;
    out.push_back(to_frame(req));
    return out;
  }
  if (const auto* nowork = std::get_if<NoWorkMsg>(&msg)) {
    const std::uint64_t retry = nowork->retry_ms == 0 ? 1 : nowork->retry_ms;
    retry_at_ms_ = now_ms + retry;
    return out;
  }
  fail("unexpected message type from coordinator");
  return out;
}

void WorkerSession::fail(const std::string& what) {
  failed_ = true;
  if (error_.empty()) error_ = what;
}

}  // namespace asyncmac::sweep
