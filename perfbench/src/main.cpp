// perfbench: the repository benchmark.
//
//   perfbench --workload cold_module|deep_loops|served_edits --seed N
//             --seconds S --trace 0|1 [--trace-out PATH] [--record PATH]
//             [--work-dir DIR]
//
// Prints a human summary on stderr and, as the last line of stdout, one
// JSON object {"correct", "attempted", "failed", "metrics"}: every
// end-to-end metric with --trace 0, every per-layer metric with
// --trace 1. --trace-out writes the traced run's spans as Chrome
// trace-event JSON; --record writes a bench-history record whose
// "config" holds the run's inputs only. Exits 1 when any output check
// failed, 2 on bad arguments.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <unistd.h>

#include "metrics.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

int usage() {
  std::cerr << "usage: perfbench --workload cold_module|deep_loops|"
               "served_edits --seed N --seconds S --trace 0|1\n"
               "                 [--trace-out PATH] [--record PATH] "
               "[--work-dir DIR]\n";
  return 2;
}

bool parse_args(int argc, char** argv, Options& options) {
  std::map<std::string, std::string> values;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      return false;
    }
    values[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 == 0) {
    return false;
  }
  try {
    for (const auto& [key, value] : values) {
      std::size_t used = 0;
      if (key == "workload") {
        options.workload = value;
      } else if (key == "seed") {
        options.seed = std::stoull(value, &used);
      } else if (key == "seconds") {
        options.seconds = std::stod(value, &used);
      } else if (key == "trace") {
        options.trace = std::stoi(value, &used) != 0;
      } else if (key == "trace-out") {
        options.trace_out = value;
      } else if (key == "record") {
        options.record_out = value;
      } else if (key == "work-dir") {
        options.work_dir = value;
      } else {
        return false;
      }
      if (used != 0 && used != value.size()) {
        return false;
      }
    }
  } catch (const std::exception&) {
    return false;
  }
  return !options.workload.empty() && options.seconds > 0 &&
         std::isfinite(options.seconds);
}

std::string number(double value) {
  if (!std::isfinite(value)) {
    value = 0;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

struct Reported {
  const MetricDef* def;
  double value;
};

/// The metrics of `catalogue` in catalogue order; a per-layer metric the
/// workload does not exercise reads 0, a missing end-to-end one is a bug.
template <std::size_t N>
std::vector<Reported> select(const RunResult& result,
                             const MetricDef (&catalogue)[N], bool fill_zero,
                             std::string* missing) {
  std::map<std::string, double> by_name;
  for (const Metric& m : result.metrics) {
    by_name[m.name] = m.value;
  }
  std::vector<Reported> out;
  for (const MetricDef& def : catalogue) {
    const auto it = by_name.find(def.name);
    if (it == by_name.end() && !fill_zero && missing->empty()) {
      *missing = def.name;
    }
    out.push_back({&def, it == by_name.end() ? 0 : it->second});
  }
  return out;
}

std::string metrics_json(const std::vector<Reported>& metrics) {
  std::ostringstream out;
  out << "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i == 0 ? "" : ", ") << "\"" << metrics[i].def->name
        << "\": {\"value\": " << number(metrics[i].value) << ", \"unit\": \""
        << metrics[i].def->unit << "\"}";
  }
  out << "}";
  return out.str();
}

bool write_file(const std::string& path, const std::string& text) {
  const std::filesystem::path p(path);
  std::error_code ec;
  if (p.has_parent_path()) {
    std::filesystem::create_directories(p.parent_path(), ec);
  }
  std::ofstream out(path, std::ios::trunc);
  out << text;
  return out.good();
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!parse_args(argc, argv, options)) {
    return usage();
  }
  RunResult (*run)(const Options&) = nullptr;
  if (options.workload == "cold_module") {
    run = &run_cold_module;
  } else if (options.workload == "deep_loops") {
    run = &run_deep_loops;
  } else if (options.workload == "served_edits") {
    run = &run_served_edits;
  } else {
    std::cerr << "unknown workload '" << options.workload << "'\n";
    return usage();
  }
  namespace fs = std::filesystem;
  const bool own_work_dir = options.work_dir.empty();
  if (own_work_dir) {
    options.work_dir = "perfbench-work-" + std::to_string(::getpid());
  }

  const RunResult result = run(options);
  if (own_work_dir) {
    std::error_code ec;
    fs::remove_all(options.work_dir, ec);
  }

  std::string missing;
  std::vector<Reported> metrics =
      options.trace ? select(result, kPerLayerMetrics, true, &missing)
                    : select(result, kEndToEndMetrics, false, &missing);
  // Times are reported at the reference host speed (speed.hpp).
  for (Reported& m : metrics) {
    const std::string unit = m.def->unit;
    if (unit == "s" || unit == "ms" || unit == "us") {
      m.value *= result.speed_factor;
    } else if (unit == "1/s") {
      m.value /= result.speed_factor;
    }
  }
  std::uint64_t failed = result.failed;
  if (!missing.empty()) {
    std::cerr << "internal error: metric '" << missing << "' not measured\n";
    ++failed;
  }

  std::ostringstream config;
  config << "{";
  for (std::size_t i = 0; i < result.config.size(); ++i) {
    config << (i == 0 ? "" : ", ") << "\"" << result.config[i].first
           << "\": " << result.config[i].second;
  }
  config << "}";

  std::cerr << "perfbench " << options.workload << " " << config.str()
            << "\n";
  for (const Reported& m : metrics) {
    std::cerr << "  " << m.def->name << " = " << number(m.value) << " "
              << m.def->unit << "\n";
  }
  for (const auto& [phase, seconds] : result.phases) {
    std::cerr << "  phase " << phase << ": " << number(seconds) << " s\n";
  }
  std::cerr << "  speed factor (times above are scaled by it): "
            << number(result.speed_factor) << "\n";
  std::cerr << "  attempted " << result.attempted << ", failed " << failed
            << "\n";
  for (const std::string& error : result.errors) {
    std::cerr << "  FAILED: " << error << "\n";
  }

  if (options.trace && result.tracer != nullptr &&
      !options.trace_out.empty()) {
    if (write_file(options.trace_out, result.tracer->chrome_json())) {
      std::cerr << "  trace written to " << options.trace_out << "\n";
    } else {
      std::cerr << "  cannot write " << options.trace_out << "\n";
    }
  }
  if (!options.record_out.empty()) {
    double fps = 0;
    for (const Reported& m : metrics) {
      fps = std::string(m.def->name) == "functions_per_sec" ? m.value : fps;
    }
    std::ostringstream record;
    record << "{\"bench\": \"perfbench_" << options.workload
           << (options.trace ? "_traced" : "") << "\", \"config\": "
           << config.str();
    if (!options.trace) {
      record << ", \"functions_per_sec\": " << number(fps);
    }
    record << ", \"metrics\": " << metrics_json(metrics)
           << ", \"speed_factor\": {\"value\": "
           << number(result.speed_factor) << "}"
           << ", \"outcome\": {\"attempted\": " << result.attempted
           << ", \"failed\": " << failed << "}}\n";
    if (!write_file(options.record_out, record.str())) {
      std::cerr << "  cannot write " << options.record_out << "\n";
    }
  }

  // A run that attempted nothing is a failed run, not an empty success.
  const std::uint64_t attempted = std::max<std::uint64_t>(1, result.attempted);
  failed = std::max<std::uint64_t>(failed, result.attempted == 0 ? 1 : 0);
  const bool correct = failed == 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": " << metrics_json(metrics) << "}" << std::endl;
  return correct ? 0 : 1;
}
