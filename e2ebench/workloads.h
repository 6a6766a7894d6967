// The four benchmark workloads. Each is a closed batch: one caller
// submits a fixed, seed-pinned batch through the library's public entry
// points and waits for all of it, on at most kJobs worker threads.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "spans.h"

namespace e2ebench {

inline constexpr unsigned kJobs = 2;
/// The seed the pinned outputs below were recorded with.
inline constexpr std::uint64_t kDefaultSeed = 1;

/// Operations of one pass and the ones whose output failed its check.
struct Ops {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;

  void fail(std::uint64_t count, const std::string& why) {
    failed += count;
    problems.push_back(why);
  }
};

struct PassResult {
  Ops ops;
  double work = 0;    ///< cells, cases, slots or probes completed
  double wall_s = 0;  ///< of the entry-point call alone, checks excluded
  double cpu_s = 0;   ///< user + system, all threads
};

/// Per-layer metrics of one traced pass: name -> (value, unit).
struct LayerMetric {
  double value = 0;
  std::string unit;
};
using LayerMetrics = std::map<std::string, LayerMetric>;

struct Options {
  std::uint64_t seed = kDefaultSeed;
  /// Replaces the pinned grid digest (and applies it for any seed); the
  /// benchmark's own test uses it to check that a wrong digest is counted
  /// as a failed operation.
  std::string expect_digest;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// What `work` counts, as a rate unit ("cells/s").
  virtual const char* rate_unit() const = 0;
  /// Assemble one pass's inputs without running them. With a tracer,
  /// every engine assembly is recorded as a "sim.build" span.
  virtual void setup(Tracer* tracer) = 0;
  /// One untraced pass through the public entry point; checks outputs.
  virtual PassResult pass() = 0;
  /// Checks run once per traced run, after one untraced pass (telemetry
  /// on). May add per-layer metrics measured by the check itself.
  virtual Ops traced_checks(Tracer& tracer, LayerMetrics& out) = 0;
  /// One traced pass rebuilt from the public pieces the entry point
  /// composes, with a span around each call into a layer, under the root
  /// span `root` the caller opened; fills the pass's per-layer metrics.
  virtual Ops traced_pass(Tracer& tracer, LayerMetrics& out) = 0;
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Options& opt);
const std::vector<std::string>& workload_names();

}  // namespace e2ebench
