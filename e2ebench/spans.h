// Spans recorded by the benchmark around its calls into the library's
// layers, and the per-layer split derived from them.
//
// A span is (name, start, end, parent, thread). Spans stay in memory and
// are written out once, when the run ends. The name is the layer metric
// the span's time belongs to (e.g. "verify.oracle").
//
// Self time: a span's duration minus the part of it its child spans
// cover. With parallel workers several spans run at once, so the split
// shares wall time instead: at every instant the pass's wall time is
// divided equally among the spans then running that have no running
// child (a sweep over start/end events). The shares of all spans of one
// pass therefore sum to the pass's wall time; the root span's own share
// is the time no layer span covered, reported as the residual.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace e2ebench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline constexpr std::uint32_t kNoSpan = 0xffffffffu;

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t parent = kNoSpan;
  std::uint32_t thread = 0;
  /// Time measured inside this span, on its thread, by accumulating
  /// timers instead of child spans (calls too frequent to record one
  /// span each), by layer name.
  std::vector<std::pair<std::string, std::int64_t>> inner;
};

class Tracer {
 public:
  /// Open a span as a child of the calling thread's current span and make
  /// it current. Thread-safe.
  std::uint32_t begin(const std::string& name);
  /// Close span `id` and restore the thread's previous current span.
  void end(std::uint32_t id);
  /// Attribute `ns` of span `id`'s own time to layer `layer`.
  void add_inner(std::uint32_t id, const std::string& layer, std::int64_t ns);

  /// The calling thread's current span (kNoSpan outside any span).
  static std::uint32_t current();
  /// Worker threads start outside any span; adopt `parent` as current.
  static void adopt(std::uint32_t parent);

  const std::vector<Span>& spans() const { return spans_; }

  /// Per-layer wall-time shares (ns) of the tree rooted at `root`; they
  /// sum to the root's duration. The root's own share is keyed by its
  /// name.
  std::map<std::string, double> wall_shares(std::uint32_t root) const;
  /// Per-layer thread-busy self time (ns) under `root`, root excluded:
  /// duration minus the union of child intervals, summed by name.
  std::map<std::string, double> self_times(std::uint32_t root) const;
  /// Durations (ns) of every span named `name` under `root`.
  std::vector<std::int64_t> durations(std::uint32_t root,
                                      const std::string& name) const;
  std::int64_t duration(std::uint32_t id) const {
    return spans_[id].end_ns - spans_[id].start_ns;
  }

  /// Write every span as one JSON object per line.
  void write_jsonl(const std::string& path) const;

 private:
  /// `root` first, then its descendants in id order.
  std::vector<std::uint32_t> subtree(std::uint32_t root) const;
  /// Per span id: duration minus the union of its children's intervals.
  std::vector<std::int64_t> own_ns(const std::vector<std::uint32_t>& ids) const;

  mutable std::mutex mu_;
  std::vector<Span> spans_;  ///< guarded by mu_ while spans are recorded
};

/// RAII span on the calling thread.
class Scope {
 public:
  Scope(Tracer* tracer, const std::string& name)
      : tracer_(tracer), id_(tracer ? tracer->begin(name) : kNoSpan) {}
  ~Scope() {
    if (tracer_) tracer_->end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  std::uint32_t id() const { return id_; }

 private:
  Tracer* tracer_;
  std::uint32_t id_;
};

}  // namespace e2ebench
