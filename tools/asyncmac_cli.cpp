// tools/asyncmac_cli — command-line simulator driver.
//
// Run any protocol of the library against any workload/slot adversary
// without writing code:
//
//   asyncmac_cli --protocol=ca-arrow --n=4 --r=2 --rho=0.7
//                --burst=16 --policy=perstation --horizon=100000
//   (one command line; wrapped here for width)
//
// `asyncmac_cli --help` prints the full flag reference (print_help below;
// the help smoke tests in tools/CMakeLists.txt pin its coverage). Every
// flag is parsed from one table, kFlags, which also names the modes that
// read it. Modes:
//
//   (default)           one simulation run, stats as text or --json
//   --grid              experiment grid over comma-list dimensions
//   --msr               Max Stable Rate estimate
//   resume <ckpt>       continue a run from a checkpoint file
//   fuzz [...]          property-fuzzing campaign (src/verify/)
//   stats <jsonl>       summarize a telemetry JSONL stream
//   serve [...]         distributed-sweep coordinator (src/sweep/)
//   worker --port=P     distributed-sweep worker
//   live-serve [...]    live channel-emulator daemon (src/live/)
//   live-station [...]  live station client
//
// Checkpointing (docs/CHECKPOINT.md): a single run with
// --checkpoint-every=K --checkpoint-dir=D autosaves rotating snapshots
// every K slot events; `resume` rebuilds the engine from the embedded
// RunSpec and continues bit-for-bit. Grid mode takes --checkpoint-dir
// alone and keeps a per-cell manifest so an interrupted sweep restarts at
// the first incomplete cell.
//
// Exit code 0 on success; 1 on fuzz violations / failed replay / bad
// checkpoint; 2 on bad usage.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/experiment.h"
#include "analysis/msr.h"
#include "analysis/registry.h"
#include "energy/meter.h"
#include "live/daemon.h"
#include "live/station.h"
#include "live/udp.h"
#include "live/virtual_net.h"
#include "metrics/json.h"
#include "sim/engine.h"
#include "snapshot/checkpoint.h"
#include "sweep/tcp.h"
#include "telemetry/jsonl.h"
#include "telemetry/registry.h"
#include "telemetry/summary.h"
#include "trace/renderer.h"
#include "util/parse.h"
#include "verify/campaign.h"
#include "verify/repro.h"

namespace {

using namespace asyncmac;
constexpr Tick U = kTicksPerUnit;

// ---- modes ------------------------------------------------------------
// One bit per mode. The default command selects kRun, or kGrid / kMsr
// with --grid / --msr; `serve` selects kServe, or kServeFuzz with --fuzz;
// every other subcommand is its own mode. A flag lists the modes that
// read it, and giving it to any other mode is a usage error.
constexpr unsigned kRun = 1u << 0;
constexpr unsigned kGrid = 1u << 1;
constexpr unsigned kMsr = 1u << 2;
constexpr unsigned kResume = 1u << 3;
constexpr unsigned kFuzz = 1u << 4;
constexpr unsigned kStats = 1u << 5;
constexpr unsigned kServe = 1u << 6;
constexpr unsigned kServeFuzz = 1u << 7;
constexpr unsigned kWorker = 1u << 8;
constexpr unsigned kLiveServe = 1u << 9;
constexpr unsigned kLiveStation = 1u << 10;
constexpr unsigned kAnyMode = (1u << 11) - 1;
/// Modes that read the scenario flags (--protocol ... --telemetry).
constexpr unsigned kScenario = kRun | kGrid | kMsr | kServe | kLiveServe;
/// Modes whose --protocol/--n/--r/--rho/--policy take comma lists.
constexpr unsigned kSweep = kGrid | kServe;
/// Indexed by bit position, for "does not apply to" messages.
constexpr const char* kModeNames[] = {
    "a single run", "--grid",     "--msr",        "resume",
    "fuzz",         "stats",      "serve without --fuzz", "serve --fuzz",
    "worker",       "live-serve", "live-station"};

/// Every mode's options, filled by the flag table (kFlags) below.
struct Options {
  unsigned mode = kRun;                ///< one mode bit
  std::vector<std::string_view> seen;  ///< flags given, in argv order
  std::string operand;                 ///< stats / resume file argument

  // Scenario. The five axes stay raw text until parse_axes: comma lists
  // in sweep modes, one value otherwise.
  std::string protocol = "ao-arrow";
  std::string n_list = "4";
  std::string r_list = "2";
  std::string rho_list = "0.5";
  std::string policy = "perstation";
  std::vector<std::uint32_t> ns;  ///< parsed --n (one element unless sweep)
  std::vector<std::uint32_t> rs;  ///< parsed --r
  std::vector<double> rhos;       ///< parsed --rho
  std::string pattern = "roundrobin";
  Tick burst_units = 16;
  Tick horizon_units = 100000;
  std::uint64_t seed = 1;
  // k-restrained channel (k = 0: unrestrained) and per-slot energy model.
  channel::RestrainedSpec restrained;
  energy::EnergyModel energy;
  std::string telemetry_path;

  // Run output and checkpointing.
  bool json = false;
  Tick trace_units = 0;
  std::uint64_t checkpoint_every = 0;
  std::string checkpoint_dir;

  // Sweeps (--grid, serve); --jobs also sizes fuzz campaigns.
  int seeds = 1;
  unsigned jobs = 0;
  unsigned cohort = 0;
  std::string csv_path;

  // fuzz (and serve --fuzz: --cases).
  std::uint64_t cases = 1000;
  int time_budget = 0;
  bool shrink = true;
  std::string repro_out = "asyncmac_fuzz_repro.json";
  std::string repro_in;          // replay mode
  std::uint64_t case_seed = 0;   // single-case mode (0 = off)
  std::uint64_t emit_case = 0;   // corpus-pinning mode (when given)
  std::string fuzz_checkpoint;   // campaign cursor file

  std::size_t top = 20;  // stats

  // Endpoints: serve, worker, live-serve, live-station.
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< listeners: 0 = ephemeral; clients need one
  std::string port_file;
  std::optional<std::string> name;
  std::uint64_t lease_timeout_ms = 10000;
  std::uint64_t heartbeat_ms = 1000;
  bool virtual_mode = false;
  std::uint64_t unit_us = 1000;
  live::UdpServeOptions udp;    ///< live-serve idle timeout + emulation
  live::StationConfig station;  ///< live-station --id/--retry-units/...

  bool given(std::string_view flag) const {
    return std::find(seen.begin(), seen.end(), flag) != seen.end();
  }
};

std::vector<std::string> split_list(const std::string& s) {
  std::vector<std::string> out;
  std::size_t from = 0;
  while (from <= s.size()) {
    const std::size_t comma = s.find(',', from);
    const std::size_t to = comma == std::string::npos ? s.size() : comma;
    if (to > from) out.push_back(s.substr(from, to - from));
    if (comma == std::string::npos) break;
    from = comma + 1;
  }
  return out;
}

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "asyncmac_cli: " << error
            << "\nrun `asyncmac_cli --help` for the full flag reference\n";
  std::exit(2);
}

// The complete flag reference, covering every mode and subcommand. The
// help smoke tests (tools/CMakeLists.txt) pin that run/grid/msr/fuzz/
// stats/resume and the checkpoint/telemetry flags all appear here — keep
// it in sync with kFlags when adding flags.
[[noreturn]] void print_help() {
  std::cout <<
      "asyncmac_cli - discrete-event MAC simulator driver\n"
      "\n"
      "usage:\n"
      "  asyncmac_cli [run flags]              one simulation run\n"
      "  asyncmac_cli --grid [run flags]       experiment grid sweep\n"
      "  asyncmac_cli --msr [run flags]        Max Stable Rate estimate\n"
      "  asyncmac_cli resume <ckpt|dir> [...]  continue a checkpointed run\n"
      "                 (a directory resumes its newest ckpt-*.snap)\n"
      "  asyncmac_cli fuzz [fuzz flags]        property-fuzzing campaign\n"
      "  asyncmac_cli stats <file> [--top=N]   summarize telemetry JSONL\n"
      "  asyncmac_cli serve [serve flags]      distributed-sweep coordinator\n"
      "  asyncmac_cli worker --port=P          distributed-sweep worker\n"
      "  asyncmac_cli live-serve [...]         live channel-emulator daemon\n"
      "  asyncmac_cli live-station [...]       live station client\n"
      "  asyncmac_cli --help                   this reference\n"
      "\n"
      "A flag the selected mode does not read is a usage error (exit 2).\n"
      "\n"
      "run flags (a single run reads them all; --msr all but --rho,\n"
      "--json, --trace and the checkpoint flags; --grid all but --pattern,\n"
      "--json, --trace and --checkpoint-every):\n"
      "  --protocol=P   ao-arrow | ca-arrow | adaptive-abs | abs | rrw |\n"
      "                 mbtf | aloha | beb | csma-lbt | silence-tdma |\n"
      "                 sync-binary-le | listen | tree-resolution\n"
      "                 (default ao-arrow)\n"
      "  --n=N          stations (default 4)\n"
      "  --r=R          asynchrony bound R >= 1 (default 2)\n"
      "  --rho=F        injection rate in [0, 1] (default 0.5)\n"
      "  --burst=B      burstiness in time units (default 16)\n"
      "  --policy=S     sync | max | perstation | cyclic | random |\n"
      "                 stretch-tx (default perstation)\n"
      "  --pattern=S    roundrobin | single | random | maxqueue (default\n"
      "                 roundrobin)\n"
      "  --horizon=T    simulated time units (default 100000)\n"
      "  --seed=S       master seed (default 1)\n"
      "  --json         print stats as JSON instead of text\n"
      "  --trace=T      also render the first T time units of the schedule\n"
      "  --telemetry=P  stream run telemetry as JSONL to P (never changes\n"
      "                 simulation results; see docs/OBSERVABILITY.md)\n"
      "  --restrained-k=K[:jam|reject]  k-restrained channel: at most K\n"
      "                 concurrent transmissions; over-capacity ones jam\n"
      "                 (sent anyway, guaranteed collision; default) or\n"
      "                 are rejected (suppressed). 0 = unrestrained\n"
      "  --energy-model=TX:LISTEN:SLEEP  per-slot energy accounting with\n"
      "                 the three integer costs (transmit / listen with a\n"
      "                 non-empty queue / idle-sleep); observation-only,\n"
      "                 never changes simulation results (docs/ENERGY.md)\n"
      "  --checkpoint-every=K  single run: autosave a snapshot every K\n"
      "                 slot events (requires --checkpoint-dir)\n"
      "  --checkpoint-dir=D    single run: rotating snapshot directory;\n"
      "                 grid: per-cell manifest directory for resumable\n"
      "                 sweeps (see docs/CHECKPOINT.md)\n"
      "\n"
      "grid flags (--grid only, except that serve also reads --seeds and\n"
      "--csv and fuzz --jobs; --protocol/--n/--r/--rho/--policy take comma\n"
      "lists and the cross product x --seeds replications runs on --jobs\n"
      "workers, see analysis/experiment.h):\n"
      "  --seeds=K      seed replications per cell (default 1)\n"
      "  --jobs=J       worker threads, 0 = all cores (default 0);\n"
      "                 records are byte-identical for every J\n"
      "  --cohort=K     batch up to K cells differing only in seed and\n"
      "                 injector params (rho) through the lockstep cohort\n"
      "                 engine (ca-arrow with sync/max/perstation slots;\n"
      "                 other cells always run scalar); 0 = auto,\n"
      "                 1 = scalar (default 0); records are\n"
      "                 byte-identical for every K\n"
      "  --csv=PATH     also write the records as CSV\n"
      "\n"
      "resume flags (after: asyncmac_cli resume path/to/ckpt.snap or the\n"
      "autosave directory):\n"
      "  --horizon=T    run to T time units instead of the checkpoint's\n"
      "                 recorded horizon\n"
      "  --json / --trace=T / --telemetry=P   as in run mode\n"
      "  --checkpoint-dir=D    keep autosaving into D (cadence comes from\n"
      "                 the checkpoint's own --checkpoint-every)\n"
      "  exit 1 with a typed error (io/truncated/bad-magic/bad-version/\n"
      "  bad-crc/corrupt/mismatch) when the file cannot be resumed\n"
      "\n"
      "fuzz flags (two-token `--flag value` form also accepted):\n"
      "  --seed=S         campaign seed; case K's seed derives from it\n"
      "  --cases=K        generated cases (default 1000)\n"
      "  --jobs=J         worker threads, 0 = all cores (default 0)\n"
      "  --time-budget=T  wall-clock cap in seconds, 0 = unlimited\n"
      "  --protocol=LIST  restrict the generated protocol pool\n"
      "  --no-shrink      skip counterexample minimization\n"
      "  --repro-out=P    failure repro path (default\n"
      "                   asyncmac_fuzz_repro.json)\n"
      "  --repro=FILE     replay a repro file instead of a campaign\n"
      "  --case-seed=X    run the one scenario case seed X derives\n"
      "  --emit-case=I    pin campaign case I as a clean repro\n"
      "  --telemetry=P    stream campaign telemetry as JSONL to P\n"
      "  --checkpoint=P   write a resumable chunk cursor to P; a rerun\n"
      "                   with the same campaign resumes after the last\n"
      "                   completed chunk (docs/CHECKPOINT.md)\n"
      "\n"
      "stats flags:\n"
      "  --top=N        show the top N counters (default 20)\n"
      "\n"
      "serve flags (coordinator; sweep dimensions as in --grid, see\n"
      "docs/DISTRIBUTED.md — stdout and --csv are byte-identical to the\n"
      "same sweep run locally with --grid):\n"
      "  --port=P             listen port; 0 = ephemeral (default 0)\n"
      "  --port-file=PATH     write the bound port to PATH (scripts/CI)\n"
      "  --lease-timeout-ms=T reassign a leased unit after T ms without\n"
      "                       worker liveness (default 10000)\n"
      "  --heartbeat-ms=T     heartbeat cadence asked of workers\n"
      "                       (default 1000)\n"
      "  --seeds=K / --csv=PATH / --checkpoint-dir=D / --telemetry=P\n"
      "                       as in --grid mode\n"
      "  --fuzz --cases=K     distribute a fuzz campaign (chunked cases)\n"
      "                       instead of a grid; --seed seeds it. With\n"
      "                       --fuzz only --seed, --cases, --telemetry and\n"
      "                       the port/lease/heartbeat flags apply\n"
      "\n"
      "worker flags (joins a coordinator, computes leased units until the\n"
      "sweep completes; safe to kill — its leases are reassigned):\n"
      "  --host=H       coordinator host (default 127.0.0.1)\n"
      "  --port=P       coordinator port (required)\n"
      "  --name=S       worker name for coordinator-side logs\n"
      "\n"
      "live-serve flags (run flags above select the scenario; docs/LIVE.md;\n"
      "stations connect over loopback UDP unless --virtual; the stability\n"
      "verdict goes to stderr, stdout matches run mode byte-for-byte):\n"
      "  --virtual            daemon + stations in-process on a virtual\n"
      "                       clock (deterministic differential mode)\n"
      "  --port=P             UDP listen port; 0 = ephemeral (default 0)\n"
      "  --port-file=PATH     write the bound port to PATH (scripts/CI)\n"
      "  --unit-us=N          wall microseconds per time unit (default\n"
      "                       1000); stations must use the same value\n"
      "  --idle-timeout-ms=T  exit 1 after T ms without a datagram\n"
      "                       (default 30000)\n"
      "  --emu-loss=F         per-datagram drop probability in [0, 1)\n"
      "  --emu-delay-us=N     fixed one-way latency (microseconds)\n"
      "  --emu-jitter-us=N    extra uniform latency in [0, N] us\n"
      "  --emu-seed=S         emulation rng seed (default 1)\n"
      "\n"
      "live-station flags (one protocol automaton joining a live-serve\n"
      "daemon; exits 0 when the daemon fins the run cleanly):\n"
      "  --host=H         daemon host (default 127.0.0.1)\n"
      "  --port=P         daemon UDP port (required)\n"
      "  --id=I           station id in 1..n (required)\n"
      "  --name=S         station name (default station-I)\n"
      "  --unit-us=N      must match the daemon's (default 1000)\n"
      "  --retry-units=T  reply timeout before a retransmit (default 64)\n"
      "  --max-retries=K  unanswered retransmits before giving up\n"
      "                   (default 25)\n"
      "\n"
      "exit codes: 0 success; 1 fuzz violations, failed replay or bad\n"
      "checkpoint; 2 bad usage\n";
  std::exit(0);
}

// ---- strict argv numeric parsing (util/parse.h) -----------------------
// A malformed, overflowing or too-small value exits with a usage message
// instead of an uncaught std::sto* exception (std::terminate); trailing
// garbage ("--n=8x") and silently-wrapping u32 overflow ("--r=4294967297"
// → 1) are rejected rather than truncated.

// Largest time-unit count whose tick conversion (units * U) cannot
// overflow a signed 64-bit Tick.
constexpr std::uint64_t kMaxUnitsArg =
    static_cast<std::uint64_t>(INT64_MAX / kTicksPerUnit);

std::uint64_t arg_u64(const std::string& s, const char* what,
                      std::uint64_t max = UINT64_MAX, std::uint64_t min = 0) {
  std::uint64_t v = 0;
  try {
    v = util::parse_u64(s, what, max);
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  }
  if (v < min) usage(std::string(what) + " must be >= " + std::to_string(min));
  return v;
}

std::uint32_t arg_u32(const std::string& s, const char* what,
                      std::uint32_t max = UINT32_MAX, std::uint32_t min = 0) {
  return static_cast<std::uint32_t>(arg_u64(s, what, max, min));
}

Tick arg_units(const std::string& s, const char* what, std::uint64_t min = 0) {
  return static_cast<Tick>(arg_u64(s, what, kMaxUnitsArg, min));
}

double arg_finite(const std::string& s, const char* what) {
  try {
    return util::parse_double(s, what);
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  }
}

/// --restrained-k=K[:jam|reject] — at most K concurrent transmissions;
/// over-capacity ones jam (default) or are rejected.
void parse_restrained_arg(Options& opt, const std::string& v) {
  const std::size_t colon = v.find(':');
  opt.restrained.k = arg_u32(
      colon == std::string::npos ? v : v.substr(0, colon), "--restrained-k");
  if (colon != std::string::npos) {
    const std::string mode = v.substr(colon + 1);
    if (mode == "jam")
      opt.restrained.jam = true;
    else if (mode == "reject")
      opt.restrained.jam = false;
    else
      usage("--restrained-k mode must be jam or reject, got: " + mode);
  }
}

/// --energy-model=TX:LISTEN:SLEEP — enable per-slot energy accounting
/// with the three integer costs (energy/model.h; docs/ENERGY.md).
void parse_energy_arg(Options& opt, const std::string& v) {
  const std::size_t c1 = v.find(':');
  const std::size_t c2 = c1 == std::string::npos ? c1 : v.find(':', c1 + 1);
  if (c1 == std::string::npos || c2 == std::string::npos)
    usage("--energy-model takes TX:LISTEN:SLEEP integer costs");
  opt.energy.enabled = true;
  opt.energy.cost_transmit =
      arg_u64(v.substr(0, c1), "--energy-model transmit cost");
  opt.energy.cost_listen =
      arg_u64(v.substr(c1 + 1, c2 - c1 - 1), "--energy-model listen cost");
  opt.energy.cost_sleep =
      arg_u64(v.substr(c2 + 1), "--energy-model sleep cost");
}

// ---- the flag table ---------------------------------------------------
// Each flag is declared once: its name, whether it takes a value, the
// modes that read it, and the one setter that parses and bounds it.

using Arg = const std::string&;

struct Flag {
  std::string_view name;
  bool takes_value;
  unsigned modes;
  void (*set)(Options&, Arg);
};

constexpr bool kValue = true;
constexpr bool kSwitch = false;
constexpr unsigned kListeners = kServe | kServeFuzz | kLiveServe;
constexpr unsigned kCoordinator = kServe | kServeFuzz;

const Flag kFlags[] = {
    // Scenario: one run description, or the axes of a --grid/serve sweep.
    {"--protocol", kValue, kScenario | kFuzz,
     [](Options& o, Arg v) { o.protocol = v; }},
    {"--n", kValue, kScenario, [](Options& o, Arg v) { o.n_list = v; }},
    {"--r", kValue, kScenario, [](Options& o, Arg v) { o.r_list = v; }},
    // --msr searches rho itself.
    {"--rho", kValue, kScenario & ~kMsr,
     [](Options& o, Arg v) { o.rho_list = v; }},
    {"--policy", kValue, kScenario, [](Options& o, Arg v) { o.policy = v; }},
    {"--pattern", kValue, kRun | kMsr | kLiveServe,
     [](Options& o, Arg v) { o.pattern = v; }},
    {"--burst", kValue, kScenario,
     [](Options& o, Arg v) { o.burst_units = arg_units(v, "--burst"); }},
    {"--horizon", kValue, kScenario | kResume,
     [](Options& o, Arg v) { o.horizon_units = arg_units(v, "--horizon"); }},
    {"--seed", kValue, kScenario | kFuzz | kServeFuzz,
     [](Options& o, Arg v) { o.seed = arg_u64(v, "--seed"); }},
    {"--restrained-k", kValue, kScenario, parse_restrained_arg},
    {"--energy-model", kValue, kScenario, parse_energy_arg},
    {"--telemetry", kValue, kScenario | kResume | kFuzz | kServeFuzz,
     [](Options& o, Arg v) { o.telemetry_path = v; }},

    // Mode switches and help.
    {"--grid", kSwitch, kGrid, [](Options& o, Arg) { o.mode = kGrid; }},
    {"--msr", kSwitch, kMsr, [](Options& o, Arg) { o.mode = kMsr; }},
    {"--fuzz", kSwitch, kServeFuzz,
     [](Options& o, Arg) { o.mode = kServeFuzz; }},
    {"--help", kSwitch, kAnyMode, [](Options&, Arg) { print_help(); }},

    // Run output and checkpointing.
    {"--json", kSwitch, kRun | kResume | kLiveServe,
     [](Options& o, Arg) { o.json = true; }},
    {"--trace", kValue, kRun | kResume | kLiveServe,
     [](Options& o, Arg v) { o.trace_units = arg_units(v, "--trace"); }},
    {"--checkpoint-every", kValue, kRun,
     [](Options& o, Arg v) {
       o.checkpoint_every = arg_u64(v, "--checkpoint-every");
     }},
    {"--checkpoint-dir", kValue, kRun | kGrid | kResume | kServe,
     [](Options& o, Arg v) { o.checkpoint_dir = v; }},

    // Sweeps.
    {"--seeds", kValue, kSweep,
     [](Options& o, Arg v) {
       o.seeds = static_cast<int>(arg_u32(v, "--seeds", INT32_MAX, 1));
     }},
    {"--jobs", kValue, kGrid | kFuzz,
     [](Options& o, Arg v) { o.jobs = arg_u32(v, "--jobs"); }},
    {"--cohort", kValue, kGrid,
     [](Options& o, Arg v) { o.cohort = arg_u32(v, "--cohort"); }},
    {"--csv", kValue, kSweep, [](Options& o, Arg v) { o.csv_path = v; }},

    // fuzz.
    {"--cases", kValue, kFuzz | kServeFuzz,
     [](Options& o, Arg v) { o.cases = arg_u64(v, "--cases", UINT64_MAX, 1); }},
    {"--time-budget", kValue, kFuzz,
     [](Options& o, Arg v) {
       o.time_budget =
           static_cast<int>(arg_u32(v, "--time-budget", INT32_MAX));
     }},
    {"--no-shrink", kSwitch, kFuzz, [](Options& o, Arg) { o.shrink = false; }},
    {"--repro-out", kValue, kFuzz, [](Options& o, Arg v) { o.repro_out = v; }},
    {"--repro", kValue, kFuzz, [](Options& o, Arg v) { o.repro_in = v; }},
    {"--case-seed", kValue, kFuzz,
     [](Options& o, Arg v) { o.case_seed = arg_u64(v, "--case-seed"); }},
    {"--emit-case", kValue, kFuzz,
     [](Options& o, Arg v) { o.emit_case = arg_u64(v, "--emit-case"); }},
    {"--checkpoint", kValue, kFuzz,
     [](Options& o, Arg v) { o.fuzz_checkpoint = v; }},

    {"--top", kValue, kStats,
     [](Options& o, Arg v) { o.top = arg_u64(v, "--top"); }},

    // Endpoints.
    {"--host", kValue, kWorker | kLiveStation,
     [](Options& o, Arg v) { o.host = v; }},
    {"--port", kValue, kListeners | kWorker | kLiveStation,
     [](Options& o, Arg v) {
       o.port = static_cast<std::uint16_t>(arg_u32(v, "--port", 65535));
     }},
    {"--port-file", kValue, kListeners,
     [](Options& o, Arg v) { o.port_file = v; }},
    {"--name", kValue, kWorker | kLiveStation,
     [](Options& o, Arg v) { o.name = v; }},
    {"--lease-timeout-ms", kValue, kCoordinator,
     [](Options& o, Arg v) {
       o.lease_timeout_ms = arg_u64(v, "--lease-timeout-ms", UINT64_MAX, 1);
     }},
    {"--heartbeat-ms", kValue, kCoordinator,
     [](Options& o, Arg v) { o.heartbeat_ms = arg_u64(v, "--heartbeat-ms"); }},

    // Live channel.
    {"--virtual", kSwitch, kLiveServe,
     [](Options& o, Arg) { o.virtual_mode = true; }},
    {"--unit-us", kValue, kLiveServe | kLiveStation,
     [](Options& o, Arg v) {
       o.unit_us = arg_u64(v, "--unit-us", UINT64_MAX, 1);
     }},
    {"--idle-timeout-ms", kValue, kLiveServe,
     [](Options& o, Arg v) {
       o.udp.idle_timeout_ms = arg_u64(v, "--idle-timeout-ms", UINT64_MAX, 1);
     }},
    {"--emu-loss", kValue, kLiveServe,
     [](Options& o, Arg v) {
       o.udp.emu_loss = arg_finite(v, "--emu-loss");
       if (o.udp.emu_loss < 0 || o.udp.emu_loss >= 1)
         usage("--emu-loss must lie in [0, 1)");
     }},
    {"--emu-delay-us", kValue, kLiveServe,
     [](Options& o, Arg v) {
       o.udp.emu_delay_us = arg_u64(v, "--emu-delay-us");
     }},
    {"--emu-jitter-us", kValue, kLiveServe,
     [](Options& o, Arg v) {
       o.udp.emu_jitter_us = arg_u64(v, "--emu-jitter-us");
     }},
    {"--emu-seed", kValue, kLiveServe,
     [](Options& o, Arg v) { o.udp.emu_seed = arg_u64(v, "--emu-seed"); }},
    {"--id", kValue, kLiveStation,
     [](Options& o, Arg v) {
       o.station.id = arg_u32(v, "--id", UINT32_MAX, 1);
     }},
    {"--retry-units", kValue, kLiveStation,
     [](Options& o, Arg v) {
       o.station.retry_ticks = arg_units(v, "--retry-units", 1) * U;
     }},
    {"--max-retries", kValue, kLiveStation,
     [](Options& o, Arg v) {
       o.station.max_retries =
           static_cast<int>(arg_u32(v, "--max-retries", INT32_MAX, 1));
     }},
};

const Flag* find_flag(std::string_view name) {
  for (const Flag& f : kFlags)
    if (f.name == name) return &f;
  return nullptr;
}

struct Command {
  std::string_view name;  ///< argv[1]; empty for the default command
  unsigned modes;         ///< modes it can select; lowest bit = default
  const char* operand;    ///< its one positional argument, if it has one
};

const Command kCommands[] = {
    {"", kRun | kGrid | kMsr, nullptr},
    {"resume", kResume, "checkpoint file or directory"},
    {"fuzz", kFuzz, nullptr},
    {"stats", kStats, "telemetry JSONL file"},
    {"serve", kServe | kServeFuzz, nullptr},
    {"worker", kWorker, nullptr},
    {"live-serve", kLiveServe, nullptr},
    {"live-station", kLiveStation, nullptr},
};

bool is_flag(const std::string& arg) { return arg.rfind("--", 0) == 0; }

/// The scenario axes: one value each in a single run, --msr and
/// live-serve, comma lists under --grid and serve. Every element is
/// parsed strictly and range-checked here: n >= 1, R >= 1, rho in [0, 1]
/// (arg_finite rejects nan/inf, which pass any range comparison).
void parse_axes(Options& o) {
  const bool sweep = (o.mode & kSweep) != 0;
  for (const std::string* v :
       {&o.protocol, &o.policy, &o.n_list, &o.r_list, &o.rho_list})
    if (!sweep && v->find(',') != std::string::npos)
      usage("comma lists need --grid");
  const auto elements = [sweep](const std::string& v) {
    return sweep ? split_list(v) : std::vector<std::string>{v};
  };
  for (const auto& v : elements(o.n_list))
    o.ns.push_back(arg_u32(v, "--n", UINT32_MAX, 1));
  for (const auto& v : elements(o.r_list))
    o.rs.push_back(arg_u32(v, "--r", UINT32_MAX, 1));
  for (const auto& v : elements(o.rho_list)) {
    o.rhos.push_back(arg_finite(v, "--rho"));
    if (o.rhos.back() < 0 || o.rhos.back() > 1)
      usage("--rho must lie in [0, 1]");
  }
}

/// The one argv loop: `--flag=value`, bare switches, `--help`/`-h`, the
/// positional operand of stats/resume and, for fuzz only, the two-token
/// `--flag value` form. Then the checks that need the whole line.
Options parse_args(const Command& cmd, int argc, char** argv) {
  Options o;
  o.mode = 1u << std::countr_zero(cmd.modes);
  const std::string word = cmd.name.empty() ? "" : std::string(cmd.name) + " ";
  for (int i = 0; i < argc; ++i) {
    const std::string arg = std::string(argv[i]) == "-h" ? "--help" : argv[i];
    if (!is_flag(arg)) {
      if (cmd.operand == nullptr) usage("unknown " + word + "argument: " + arg);
      if (!o.operand.empty()) usage(word + "takes one " + cmd.operand);
      o.operand = arg;
      continue;
    }
    const std::size_t eq = arg.find('=');
    const std::string name = arg.substr(0, eq);
    const Flag* flag = find_flag(name);
    if (flag == nullptr || (flag->modes & cmd.modes) == 0)
      usage("unknown " + word + "argument: " + arg);
    std::string value;
    if (eq != std::string::npos) {
      if (!flag->takes_value) usage(name + " takes no value");
      value = arg.substr(eq + 1);
    } else if (flag->takes_value) {
      if (cmd.modes != kFuzz || i + 1 >= argc || is_flag(argv[i + 1]))
        usage(name + " needs a value");
      value = argv[++i];
    }
    o.seen.push_back(flag->name);
    flag->set(o, value);
  }

  for (std::string_view name : o.seen)
    if ((find_flag(name)->modes & o.mode) == 0)
      usage(std::string(name) + " does not apply to " +
            kModeNames[std::countr_zero(o.mode)]);
  if (cmd.operand != nullptr && o.operand.empty())
    usage(word + "needs a " + cmd.operand);
  if (o.mode & kScenario) parse_axes(o);
  if (o.mode == kRun && (o.checkpoint_every > 0) == o.checkpoint_dir.empty())
    usage("--checkpoint-every and --checkpoint-dir go together");
  if (o.mode == kFuzz && o.given("--protocol")) {
    const std::vector<std::string> known = analysis::protocol_names();
    for (const auto& p : split_list(o.protocol))
      if (std::find(known.begin(), known.end(), p) == known.end())
        usage("unknown protocol: " + p);
  }
  if ((o.mode & (kWorker | kLiveStation)) && o.port == 0)
    usage(word + "needs --port");
  if (o.mode == kLiveStation && !o.given("--id"))
    usage("live-station needs --id");
  return o;
}

/// Grid dimensions from the parsed axes — shared by --grid and `serve`
/// so a distributed sweep runs exactly the spec a local one would
/// (stdout parity depends on it).
analysis::ExperimentSpec make_grid_spec(const Options& opt) {
  analysis::ExperimentSpec spec;
  spec.protocols = split_list(opt.protocol);
  spec.slot_policies = split_list(opt.policy);
  spec.station_counts = opt.ns;
  spec.bounds_r = opt.rs;
  spec.rho_percents.clear();
  for (double rho : opt.rhos)
    spec.rho_percents.push_back(static_cast<int>(std::lround(rho * 100)));
  spec.burst_units = opt.burst_units;
  spec.horizon_units = opt.horizon_units;
  spec.seed = opt.seed;
  spec.seeds = opt.seeds;
  spec.jobs = opt.jobs;
  spec.cohort = opt.cohort;
  spec.restrained = opt.restrained;
  spec.energy = opt.energy;
  spec.checkpoint_dir = opt.checkpoint_dir;
  return spec;
}

/// Table + optional CSV, shared by --grid and `serve`: the distributed
/// path must produce byte-identical stdout and CSV (the sweep-smoke CI
/// job diffs both against a single-process control).
int print_grid_results(const std::vector<analysis::ExperimentRecord>& records,
                       const std::string& csv_path, bool energy_columns) {
  std::cout << analysis::to_table(records);
  if (!csv_path.empty()) {
    analysis::write_csv(records, csv_path, energy_columns);
    std::cout << "(" << records.size() << " records written to "
              << csv_path << ")\n";
  }
  return 0;
}

int run_experiment_grid(const Options& opt) {
  const analysis::ExperimentSpec spec = make_grid_spec(opt);
  std::vector<analysis::ExperimentRecord> records;
  try {
    records = analysis::run_grid(spec);
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  } catch (const snapshot::SnapshotError& e) {
    std::cerr << "asyncmac_cli: grid checkpoint in " << opt.checkpoint_dir
              << ": " << e.what() << "\n";
    return 1;
  }
  return print_grid_results(records, opt.csv_path, spec.energy.enabled);
}

/// The single-run configuration as a snapshot::RunSpec, so a checkpointed
/// run embeds exactly what `resume` needs to rebuild the engine. Run mode,
/// --msr (with a swept rho/seed) and live-serve all build from it.
snapshot::RunSpec make_run_spec(const Options& opt) {
  snapshot::RunSpec spec;
  spec.protocol = opt.protocol;
  spec.n = opt.ns.front();
  spec.bound_r = opt.rs.front();
  spec.slot_policy = opt.policy;
  spec.has_injector = true;
  spec.injector.rho = util::Ratio::from_double(opt.rhos.front());
  spec.injector.burst_ticks = opt.burst_units * U;
  spec.injector.seed = opt.seed + 1;
  if (opt.pattern == "maxqueue") {
    spec.injector.kind = "maxqueue";
  } else {
    spec.injector.kind = "saturating";
    spec.injector.pattern = opt.pattern;
  }
  spec.seed = opt.seed;
  spec.horizon_units = opt.horizon_units;
  spec.record_trace = opt.trace_units > 0;
  spec.checkpoint_interval = opt.checkpoint_every;
  spec.restrained = opt.restrained;
  spec.energy = opt.energy;
  return spec;
}

/// Stats text/JSON + optional trace render, shared between run mode,
/// `resume` and `live-serve` (the determinism contract makes their
/// output identical for the same effective run — the resume smoke test
/// and the live-smoke differential both diff it byte-for-byte, which is
/// why this takes the result components rather than an engine: the live
/// daemon produces the same stats/ledger/trace without one).
void report_run(const snapshot::RunSpec& spec, double rho,
                const metrics::RunStats& s, const channel::LedgerStats& ch,
                const std::vector<trace::SlotRecord>& slots, bool json,
                Tick trace_units,
                const energy::EnergyMeter* meter = nullptr) {
  // The energy block (text and JSON) is emitted only for enabled runs, so
  // a run without --energy-model prints byte-identical output to builds
  // that predate the energy subsystem.
  const energy::EnergyModel& model = spec.energy;
  const bool energy_on = meter != nullptr && model.enabled;
  if (json) {
    std::cout << metrics::to_json(s, &ch, true, energy_on ? meter : nullptr,
                                  energy_on ? &model : nullptr);
  } else {
    std::cout << "protocol=" << spec.protocol << " n=" << spec.n
              << " R=" << spec.bound_r << " rho=" << rho
              << " policy=" << spec.slot_policy << " horizon="
              << spec.horizon_units << "\n"
              << "  injected   " << s.injected_packets << " packets ("
              << to_units(s.injected_cost) << " cost units)\n"
              << "  delivered  " << s.delivered_packets << "\n"
              << "  queued     " << s.queued_packets << " (max cost "
              << to_units(s.max_queued_cost) << " units)\n"
              << "  channel    " << ch.transmissions << " transmissions, "
              << ch.successful << " successful, " << ch.collided
              << " collided, " << ch.control_transmissions << " control\n";
    if (!s.latency.empty())
      std::cout << "  latency    p50 " << to_units(s.latency.quantile(0.5))
                << "  p99 " << to_units(s.latency.quantile(0.99))
                << "  max " << to_units(s.latency.max()) << " (units)\n";
    if (energy_on) {
      std::cout << "  energy     " << meter->total_charge(model)
                << " total (peak station "
                << meter->peak_station_charge(model) << ", costs "
                << model.cost_transmit << ":" << model.cost_listen << ":"
                << model.cost_sleep << ")";
      if (s.delivered_packets > 0)
        std::cout << ", "
                  << static_cast<double>(meter->total_charge(model)) /
                         static_cast<double>(s.delivered_packets)
                  << " per delivery";
      std::cout << "\n";
    }
  }
  if (trace_units > 0) {
    trace::RenderOptions r;
    r.to = trace_units * U;
    std::cout << "\n" << trace::render_schedule(slots, r);
  }
}

int run_msr(const Options& opt) {
  analysis::MsrConfig cfg;
  cfg.probe.horizon = opt.horizon_units * U;
  cfg.base_seed = opt.seed;
  const snapshot::RunSpec base = make_run_spec(opt);
  analysis::MsrResult res;
  try {
    res = analysis::estimate_msr(
        [&base](util::Ratio rho, std::uint64_t seed) {
          snapshot::RunSpec spec = base;
          spec.injector.rho = rho;
          spec.seed = seed;
          return snapshot::build_engine(spec);
        },
        cfg);
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  }
  std::cout << "protocol=" << opt.protocol << " n=" << base.n
            << " R=" << base.bound_r << " policy=" << opt.policy
            << "  measured MSR = " << res.msr_pct << "% (" << res.probes
            << " probes)\n";
  return 0;
}

// ------------------------------------------------------------------- fuzz

std::string read_text_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) usage("cannot read " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void write_text_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  if (!out) usage("cannot write " + path);
  out << text;
}

int replay_repro_file(const Options& opt) {
  verify::Repro repro;
  try {
    repro = verify::parse_repro_json(read_text_file(opt.repro_in));
  } catch (const std::invalid_argument& e) {
    usage(std::string("bad repro file: ") + e.what());
  }
  const auto outcome = verify::replay_repro(repro);
  std::cout << "repro: " << repro.scenario.describe() << "\n"
            << "recorded: "
            << (repro.violation.empty() ? std::string("clean")
                                        : repro.violation)
            << "\n"
            << "replay:   "
            << (outcome.case_result.ok ? std::string("clean")
                                       : outcome.case_result.what)
            << "\n";
  if (!repro.trace_text.empty())
    std::cout << "trace:    "
              << (outcome.trace_matches ? "byte-identical" : "DIVERGED")
              << "\n";
  std::cout << (outcome.reproduced ? "REPRODUCED\n" : "NOT REPRODUCED\n");
  return outcome.reproduced ? 0 : 1;
}

int run_single_case(std::uint64_t case_seed,
                    const std::vector<std::string>& pool) {
  const verify::Scenario s =
      pool.empty() ? verify::scenario_from_seed(case_seed)
                   : verify::scenario_from_seed(case_seed, pool);
  std::cout << "case: " << s.describe() << "\n";
  const auto r = verify::run_case(s);
  if (r.ok) {
    std::cout << "clean\n";
    return 0;
  }
  std::cout << "VIOLATION: " << r.what << "\n";
  return 1;
}

int emit_corpus_case(const Options& opt,
                     const std::vector<std::string>& pool) {
  const verify::ScenarioGen gen(opt.seed, pool);
  const verify::Scenario s = gen.generate(opt.emit_case);
  const auto r = verify::run_case(s);
  if (!r.ok) {
    std::cerr << "refusing to pin a violating case: " << r.what << "\n";
    return 1;
  }
  write_text_file(opt.repro_out, verify::to_json(verify::make_repro(s, "")));
  std::cout << "pinned case " << opt.emit_case << " (seed " << s.case_seed
            << ") to " << opt.repro_out << "\n  " << s.describe() << "\n";
  return 0;
}

int run_fuzz(const Options& opt) {
  const std::vector<std::string> pool =
      opt.given("--protocol") ? split_list(opt.protocol)
                              : std::vector<std::string>{};
  if (!opt.repro_in.empty()) return replay_repro_file(opt);
  if (opt.case_seed != 0) return run_single_case(opt.case_seed, pool);
  if (opt.given("--emit-case")) return emit_corpus_case(opt, pool);

  verify::CampaignConfig cfg;
  cfg.seed = opt.seed;
  cfg.cases = opt.cases;
  cfg.jobs = opt.jobs;
  cfg.time_budget_seconds = opt.time_budget;
  cfg.shrink = opt.shrink;
  cfg.protocols = pool;
  cfg.checkpoint_path = opt.fuzz_checkpoint;

  std::cout << "fuzz: seed=" << opt.seed << " cases=" << opt.cases
            << " jobs=" << opt.jobs << "\n";
  verify::CampaignResult result;
  try {
    result = verify::run_campaign(cfg);
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  } catch (const snapshot::SnapshotError& e) {
    std::cerr << "asyncmac_cli fuzz: " << opt.fuzz_checkpoint << ": "
              << e.what() << "\n";
    return 1;
  }
  std::cout << verify::summarize(result);
  if (result.failures.empty()) return 0;

  // Write the minimal counterexample (or the raw first failure when
  // shrinking is off) as a replayable repro file.
  const verify::Scenario& worst =
      result.shrunk_valid ? result.shrunk : result.failures.front().scenario;
  const std::string& violation = result.shrunk_valid
                                     ? result.shrunk_violation
                                     : result.failures.front().verdict.violation;
  write_text_file(opt.repro_out,
                  verify::to_json(verify::make_repro(worst, violation)));
  std::cout << "repro written to " << opt.repro_out
            << " (replay: asyncmac_cli fuzz --repro " << opt.repro_out
            << ")\n";
  return 1;
}

// ------------------------------------------------------------------ stats

int run_stats(const Options& opt) {
  const std::string& path = opt.operand;
  std::ifstream in(path);
  if (!in) usage("cannot read " + path);
  try {
    const auto summary = telemetry::summarize_stream(in);
    std::cout << telemetry::render_summary(summary, opt.top);
  } catch (const std::invalid_argument& e) {
    std::cerr << "asyncmac_cli stats: " << path << ": " << e.what() << "\n";
    return 1;
  }
  return 0;
}

// ----------------------------------------------------------------- resume

int run_resume(const Options& opt) {
  std::string path = opt.operand;

  // A directory means "the newest autosave in it": AutoSaver names files
  // ckpt-NNNNNN.snap with a monotone counter, so the lexicographically
  // greatest one is the latest snapshot.
  std::error_code ec;
  if (std::filesystem::is_directory(path, ec)) {
    std::string best;
    for (const auto& entry : std::filesystem::directory_iterator(path, ec)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("ckpt-", 0) == 0 && name.size() > 5 &&
          name.compare(name.size() - 5, 5, ".snap") == 0 &&
          (best.empty() || name > best))
        best = (std::filesystem::path(path) / name).string();
    }
    if (best.empty()) {
      std::cerr << "asyncmac_cli resume: " << path
                << ": no ckpt-*.snap files\n";
      return 1;
    }
    path = best;
  }

  snapshot::ResumedRun run;
  try {
    run = snapshot::resume_checkpoint(path);
  } catch (const snapshot::SnapshotError& e) {
    std::cerr << "asyncmac_cli resume: " << path << ": " << e.what() << "\n";
    return 1;
  }
  snapshot::RunSpec spec = run.spec;
  if (opt.given("--horizon")) spec.horizon_units = opt.horizon_units;

  // Keep autosaving when asked to (the cadence is baked into the
  // checkpoint; a spec without one cannot re-arm from here).
  std::shared_ptr<snapshot::AutoSaver> saver;
  if (!opt.checkpoint_dir.empty()) {
    if (spec.checkpoint_interval == 0)
      usage("this checkpoint was written without --checkpoint-every; "
            "--checkpoint-dir cannot re-arm autosaving");
    saver = std::make_shared<snapshot::AutoSaver>(opt.checkpoint_dir, spec);
    run.engine->set_checkpoint_sink(
        [saver](const sim::Engine& e) { (*saver)(e); });
  }

  std::cerr << "resumed " << spec.protocol << " n=" << spec.n
            << " from " << path << " at t=" << to_units(run.engine->now())
            << " units\n";
  try {
    run.engine->run(sim::until(spec.horizon_units * U));
  } catch (const snapshot::SnapshotError& e) {
    std::cerr << "asyncmac_cli resume: autosave failed: " << e.what() << "\n";
    return 1;
  }
  telemetry::emit(
      "run.done",
      {{"protocol", spec.protocol},
       {"injected", run.engine->stats().injected_packets},
       {"delivered", run.engine->stats().delivered_packets}});
  const double rho =
      spec.has_injector ? spec.injector.rho.to_double() : 0.0;
  report_run(spec, rho, run.engine->stats(), run.engine->channel_stats(),
             run.engine->trace().slots(), opt.json, opt.trace_units,
             &run.engine->energy_meter());
  return 0;
}

// ------------------------------------------------------- serve / worker

int run_serve(const Options& opt) {
  const bool fuzz = opt.mode == kServeFuzz;
  sweep::ServeOptions srv;
  srv.port = opt.port;
  srv.coord.lease_timeout_ms = opt.lease_timeout_ms;
  srv.coord.heartbeat_ms = opt.heartbeat_ms;
  if (fuzz) {
    srv.coord.job.kind = sweep::JobKind::kFuzz;
    srv.coord.job.fuzz.seed = opt.seed;
    srv.coord.job.fuzz.cases = opt.cases;
  } else {
    srv.coord.job.kind = sweep::JobKind::kGrid;
    srv.coord.job.grid = make_grid_spec(opt);
    srv.coord.checkpoint_dir = opt.checkpoint_dir;
  }
  // Progress and the bound port go to stderr: stdout stays byte-identical
  // to the same sweep run locally with --grid.
  srv.on_listening = [&](std::uint16_t port) {
    std::cerr << "serve: listening on port " << port << "\n";
    if (!opt.port_file.empty()) {
      std::ofstream out(opt.port_file);
      out << port << "\n";
    }
  };

  sweep::ServeOutcome outcome;
  try {
    outcome = sweep::serve(srv);
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  } catch (const snapshot::SnapshotError& e) {
    std::cerr << "asyncmac_cli serve: " << e.what() << "\n";
    return 1;
  } catch (const std::runtime_error& e) {
    std::cerr << "asyncmac_cli serve: " << e.what() << "\n";
    return 1;
  }

  auto& reg = telemetry::Registry::global();
  telemetry::emit(
      "sweep.done",
      {{"leases", reg.counter("sweep.leases").value()},
       {"reassigns", reg.counter("sweep.reassigns").value()},
       {"dup_results", reg.counter("sweep.dup_results").value()},
       {"worker_deaths", reg.counter("sweep.worker_deaths").value()}});

  if (fuzz) {
    // Same summary run_campaign prints for these verdicts (shrinking is
    // coordinator-local work a distributed run does not repeat).
    verify::CampaignResult result;
    result.cases_requested = opt.cases;
    result.cases_run = outcome.verdicts.size();
    result.verdicts = outcome.verdicts;
    for (const auto& v : result.verdicts)
      if (!v.ok)
        result.failures.push_back(
            {v, verify::scenario_from_seed(v.case_seed)});
    std::cout << verify::summarize(result);
    return result.failures.empty() ? 0 : 1;
  }
  return print_grid_results(outcome.records, opt.csv_path,
                            opt.energy.enabled);
}

int run_worker(const Options& opt) {
  sweep::WorkerOptions w;
  w.host = opt.host;
  w.port = opt.port;
  w.name = opt.name.value_or(w.name);
  try {
    return sweep::run_worker(w);
  } catch (const std::runtime_error& e) {
    std::cerr << "asyncmac_cli worker: " << e.what() << "\n";
    return 1;
  }
}

// ------------------------------------------------ live-serve / live-station

/// Wall microseconds -> virtual-clock ticks under --unit-us.
Tick emu_us_to_ticks(std::uint64_t us, std::uint64_t unit_us) {
  return static_cast<Tick>(us) * U / static_cast<Tick>(unit_us);
}

int run_live_serve(const Options& opt) {
  const double rho = opt.rhos.front();
  live::DaemonConfig dc;
  dc.spec = make_run_spec(opt);
  dc.spec.checkpoint_interval = 0;  // live runs do not autosave

  if (opt.virtual_mode) {
    // Whole stack in-process on the virtual clock: deterministic, and
    // stdout is byte-identical to the same scenario in run mode (the
    // live-smoke CI job diffs the two).
    live::VirtualRunOptions vopt;
    vopt.knobs.loss = opt.udp.emu_loss;
    vopt.knobs.delay = emu_us_to_ticks(opt.udp.emu_delay_us, opt.unit_us);
    vopt.knobs.jitter = emu_us_to_ticks(opt.udp.emu_jitter_us, opt.unit_us);
    vopt.knobs.seed = opt.udp.emu_seed;
    live::VirtualRunReport rep;
    try {
      rep = live::run_virtual(dc.spec, vopt);
    } catch (const std::invalid_argument& e) {
      usage(e.what());
    }
    if (rep.daemon_failed) {
      std::cerr << "asyncmac_cli live-serve: run poisoned: " << rep.reason
                << "\n";
      return 1;
    }
    if (!rep.completed || rep.station_exit_max != 0) {
      std::cerr << "asyncmac_cli live-serve: virtual run did not complete\n";
      return 1;
    }
    telemetry::emit("live.done",
                    {{"protocol", dc.spec.protocol},
                     {"injected", rep.stats.injected_packets},
                     {"delivered", rep.stats.delivered_packets}});
    report_run(dc.spec, rho, rep.stats, rep.channel, rep.trace, opt.json,
               opt.trace_units, &rep.energy);
    // Verdict on stderr: stdout must stay identical to run mode, which
    // has no stability probe.
    std::cerr << "live: verdict=" << analysis::to_string(rep.verdict) << " ("
              << rep.samples.size() << " samples)\n";
    return 0;
  }

  std::unique_ptr<live::Daemon> daemon;
  try {
    daemon = std::make_unique<live::Daemon>(dc);
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  }
  live::UdpServeOptions uopt = opt.udp;
  uopt.port = opt.port;
  uopt.port_file = opt.port_file;
  uopt.unit_us = opt.unit_us;
  uopt.on_listening = [](std::uint16_t port) {
    std::cerr << "live-serve: listening on UDP port " << port << "\n";
  };
  std::string err;
  const int rc = live::serve_udp(*daemon, uopt, &err);
  if (rc != 0) {
    std::cerr << "asyncmac_cli live-serve: " << err << "\n";
    return rc;
  }
  telemetry::emit("live.done",
                  {{"protocol", dc.spec.protocol},
                   {"injected", daemon->stats().injected_packets},
                   {"delivered", daemon->stats().delivered_packets}});
  report_run(dc.spec, rho, daemon->stats(), daemon->live_channel_stats(),
             daemon->trace().slots(), opt.json, opt.trace_units,
             &daemon->energy_meter());
  std::cerr << "live: verdict=" << analysis::to_string(daemon->verdict())
            << " (" << daemon->backlog_samples().size() << " samples)\n";
  return 0;
}

int run_live_station(const Options& opt) {
  live::UdpStationOptions st;
  st.host = opt.host;
  st.port = opt.port;
  st.unit_us = opt.unit_us;
  st.station = opt.station;
  st.station.name =
      opt.name.value_or("station-" + std::to_string(opt.station.id));
  std::string err;
  const int rc = live::run_station_udp(st, &err);
  if (rc != 0)
    std::cerr << "asyncmac_cli live-station " << st.station.id << ": "
              << (err.empty() ? std::string("failed") : err) << "\n";
  return rc;
}

/// The single run: build, autosave when asked, run, report.
int run_single(const Options& opt) {
  const double rho = opt.rhos.front();
  const snapshot::RunSpec spec = make_run_spec(opt);
  std::unique_ptr<sim::Engine> engine;
  try {
    engine = snapshot::build_engine(spec);
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  }
  std::shared_ptr<snapshot::AutoSaver> saver;
  if (opt.checkpoint_every > 0) {
    saver = std::make_shared<snapshot::AutoSaver>(opt.checkpoint_dir, spec);
    engine->set_checkpoint_sink(
        [saver](const sim::Engine& e) { (*saver)(e); });
  }
  try {
    engine->run(sim::until(opt.horizon_units * U));
  } catch (const snapshot::SnapshotError& e) {
    std::cerr << "asyncmac_cli: autosave failed: " << e.what() << "\n";
    return 1;
  }
  telemetry::emit(
      "run.done",
      {{"protocol", opt.protocol},
       {"injected", engine->stats().injected_packets},
       {"delivered", engine->stats().delivered_packets}});
  report_run(spec, rho, engine->stats(), engine->channel_stats(),
             engine->trace().slots(), opt.json, opt.trace_units,
             &engine->energy_meter());
  if (saver && !saver->latest().empty())
    std::cerr << "checkpoint: " << saver->latest()
              << " (continue: asyncmac_cli resume " << saver->latest()
              << ")\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "help") print_help();
  const Command* cmd = &kCommands[0];
  for (const Command& c : kCommands)
    if (argc > 1 && !c.name.empty() && c.name == argv[1]) cmd = &c;
  const int first = cmd == &kCommands[0] ? 1 : 2;
  const Options opt = parse_args(*cmd, argc - first, argv + first);
  // Telemetry on: all instruments, JSONL streamed to the file.
  if (!opt.telemetry_path.empty() &&
      !telemetry::enable_to_file(opt.telemetry_path))
    usage("cannot write " + opt.telemetry_path);
  switch (opt.mode) {
    case kGrid: return run_experiment_grid(opt);
    case kMsr: return run_msr(opt);
    case kResume: return run_resume(opt);
    case kFuzz: return run_fuzz(opt);
    case kStats: return run_stats(opt);
    case kServe:
    case kServeFuzz: return run_serve(opt);
    case kWorker: return run_worker(opt);
    case kLiveServe: return run_live_serve(opt);
    case kLiveStation: return run_live_station(opt);
    default: return run_single(opt);
  }
}
