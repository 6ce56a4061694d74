// Pieces every workload shares: the compile flow, the rig, the output
// checks and code-quality measurements, and the result record.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "ir/function.hpp"
#include "machine/assignment.hpp"
#include "pipeline/rig.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

/// The Sec. 4 flow `tadfa` and `tadfa serve` run by default.
inline constexpr const char* kDefaultSpec =
    "alloc=linear:first_free,thermal-dfa,split-hot=1,spill-critical=1,"
    "alloc=coloring:coolest_first,schedule";

/// Metric keys of the flow's passes, in spec order.
inline constexpr const char* kPassKeys[] = {
    "alloc-linear",   "thermal-dfa",    "split-hot",
    "spill-critical", "alloc-coloring", "schedule"};
inline constexpr std::size_t kPassCount = std::size(kPassKeys);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Where the traced run writes its Chrome trace ("" = default path).
  std::string trace_out;
  /// Where to write the run record ("" = not written).
  std::string record_out;
  /// Directory for the run's sockets and caches; removed at exit.
  std::string work_dir;
};

struct Metric {
  std::string name;
  double value = 0;
};

struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// First few failure descriptions, for stderr.
  std::vector<std::string> errors;
  /// Run inputs only, as (key, JSON value text): workload, seed, spec,
  /// jobs, rate, sizes. Nothing measured goes here.
  std::vector<std::pair<std::string, std::string>> config;
  std::vector<Metric> metrics;
  /// Traced runs: the spans to write out.
  std::unique_ptr<Tracer> tracer;
  /// Wall seconds of the run's phases (set-up, timed, checks), for stderr.
  std::vector<std::pair<std::string, double>> phases;
  /// Host speed during the timed phases (speed.hpp); main scales every
  /// time-valued metric by it.
  double speed_factor = 1;

  void fail(std::string why);
  /// Records a metric of the catalogue (metrics.hpp), which holds its
  /// unit.
  void add(std::string name, double value) {
    metrics.push_back({std::move(name), value});
  }
};

/// The `default` machine every workload compiles on. A CompileRig
/// points into itself, so callers construct it in place from this.
const tadfa::machine::MachineConfig& default_machine();

/// Seed of the fixed corpus of mixed modules the cold_module and
/// served_edits inputs are drawn from.
inline constexpr std::uint64_t kCorpusSeed = 7;

/// Marks a corpus function with the run's seed: one dead `const salt` at
/// its entry. The fingerprint changes with the seed; the work does not.
/// (Letting the seed pick the modules themselves moved a pool's cost by
/// ±10% from seed to seed, more than the bounds allow.)
void salt_function(tadfa::ir::Function& func, std::int64_t salt);

/// Inputs for running one function under the interpreter.
struct CheckInput {
  std::vector<std::int64_t> args;
  /// Seeds the initial memory contents.
  std::uint64_t memory_seed = 0;
  /// The value an independent reference says the function returns.
  std::optional<std::int64_t> expected;
};

/// Seeded arguments (small, so every kernel loop stays short) and
/// memory for a function of `params` parameters.
CheckInput seeded_input(std::size_t params, std::uint64_t seed);

/// Code-quality totals over checked functions.
struct Quality {
  std::uint64_t code_instrs = 0;
  /// Sum of log(compiled cycles / input cycles).
  double log_cycle_ratio_sum = 0;
  double replay_peak_c_sum = 0;
  std::size_t functions = 0;

  /// Geometric mean over functions of the compiled code's cycles over
  /// its input's: what the Sec. 4 transforms cost at run time. A plain
  /// cycle sum would be ruled by the few longest random programs.
  double exec_cycles() const;
  /// Mean sim::ThermalReplay peak register temperature, in Celsius.
  double replay_peak_c() const {
    return functions == 0 ? 0 : replay_peak_c_sum / functions;
  }
};

/// Runs `input` and `compiled` under sim::Interpreter on the same
/// arguments and memory; they must return the same value or trap the
/// same way, and match `in.expected` when given. Adds the compiled
/// code's static instructions, cycles relative to the input's and
/// sim::ThermalReplay peak register temperature (under `assignment`) to
/// `quality`. Returns "" or what mismatched.
std::string check_function(const tadfa::pipeline::CompileRig& rig,
                           const tadfa::ir::Function& input,
                           const tadfa::ir::Function& compiled,
                           const tadfa::machine::RegisterAssignment& assignment,
                           const CheckInput& in, Quality& quality);

/// The process's peak resident set so far, in MB (VmHWM).
double peak_rss_mb();

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// FNV-1a: compares printed outputs without keeping them.
std::uint64_t text_hash(const std::string& text);

/// Runs `setup(last)` `repeats` times, `last` true on the final run
/// (whose state the caller keeps), and returns the median duration in
/// seconds, so one slow first touch does not decide set-up time.
template <class Setup>
double median_setup_seconds(int repeats, Setup&& setup) {
  std::vector<double> samples;
  for (int i = 0; i < repeats; ++i) {
    const Clock::time_point start = Clock::now();
    setup(i == repeats - 1);
    samples.push_back(seconds_since(start));
  }
  return median(std::move(samples));
}

}  // namespace perfbench
