#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "machine/machine_config.hpp"
#include "power/access_trace.hpp"
#include "seeds.hpp"
#include "sim/interpreter.hpp"
#include "sim/thermal_replay.hpp"

namespace perfbench {

namespace tp = tadfa::pipeline;

namespace {

constexpr double kKelvinAtZeroCelsius = 273.15;
/// Seeded memory words; every generated program reads below this.
constexpr std::size_t kSeededWords = 8192;
/// Failure descriptions kept for stderr.
constexpr std::size_t kKeptErrors = 8;

std::string describe(const tadfa::sim::ExecutionResult& r) {
  if (r.trap.has_value()) {
    return "trap '" + *r.trap + "'";
  }
  return r.return_value.has_value() ? std::to_string(*r.return_value)
                                    : std::string("no value");
}

void seed_memory(std::vector<std::int64_t>& memory, std::uint64_t seed) {
  SeedStream rng(seed);
  const std::size_t n = std::min(memory.size(), kSeededWords);
  for (std::size_t i = 0; i < n; ++i) {
    memory[i] = rng.range(-64, 64);
  }
}

}  // namespace

void RunResult::fail(std::string why) {
  ++failed;
  if (errors.size() < kKeptErrors) {
    errors.push_back(std::move(why));
  }
}

const tadfa::machine::MachineConfig& default_machine() {
  return *tadfa::machine::find_machine("default");
}

void salt_function(tadfa::ir::Function& func, std::int64_t salt) {
  const tadfa::ir::Reg dead = func.new_reg();
  auto& entry = func.blocks()[func.entry()].instructions();
  entry.insert(entry.begin(),
               tadfa::ir::Instruction(tadfa::ir::Opcode::kConst, dead,
                                      {tadfa::ir::Operand::imm(salt)}));
}

CheckInput seeded_input(std::size_t params, std::uint64_t seed) {
  SeedStream rng(seed);
  CheckInput in;
  for (std::size_t i = 0; i < params; ++i) {
    in.args.push_back(rng.range(1, 8));
  }
  in.memory_seed = rng.next();
  return in;
}

std::string check_function(const tp::CompileRig& rig,
                           const tadfa::ir::Function& input,
                           const tadfa::ir::Function& compiled,
                           const tadfa::machine::RegisterAssignment& assignment,
                           const CheckInput& in, Quality& quality) {
  const tadfa::machine::TimingModel timing;
  tadfa::sim::ExecutionResult want;
  {
    tadfa::sim::Interpreter interp(input, timing);
    seed_memory(interp.memory(), in.memory_seed);
    want = interp.run(in.args);
  }
  tadfa::power::AccessTrace trace(rig.floorplan().num_registers());
  tadfa::sim::ExecutionResult got;
  {
    tadfa::sim::Interpreter interp(compiled, timing);
    seed_memory(interp.memory(), in.memory_seed);
    got = interp.run_traced(in.args, assignment, trace);
  }
  if (want.ok() != got.ok() || want.return_value != got.return_value ||
      want.trap != got.trap) {
    return compiled.name() + ": input gives " + describe(want) +
           ", compiled gives " + describe(got);
  }
  if (in.expected.has_value() &&
      (!got.ok() || got.return_value != in.expected)) {
    return compiled.name() + ": returns " + describe(got) +
           ", closed form says " + std::to_string(*in.expected);
  }
  tadfa::sim::ReplayConfig replay_config;
  replay_config.max_repeats = 60;
  const tadfa::sim::ThermalReplay replay(rig.grid(), rig.power());
  const tadfa::sim::ReplayResult heat = replay.replay(trace, replay_config);
  const double peak_k = heat.peak_reg_temps.empty()
                            ? 0
                            : *std::max_element(heat.peak_reg_temps.begin(),
                                                heat.peak_reg_temps.end());
  quality.code_instrs += compiled.instruction_count();
  quality.log_cycle_ratio_sum +=
      std::log(static_cast<double>(std::max<std::uint64_t>(got.cycles, 1)) /
               static_cast<double>(std::max<std::uint64_t>(want.cycles, 1)));
  quality.replay_peak_c_sum += peak_k - kKelvinAtZeroCelsius;
  ++quality.functions;
  return "";
}

double Quality::exec_cycles() const {
  return functions == 0 ? 0
                        : std::exp(log_cycle_ratio_sum /
                                   static_cast<double>(functions));
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

std::uint64_t text_hash(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : text) {
    h = (h ^ c) * 0x100000001b3ULL;
  }
  return h;
}

}  // namespace perfbench
